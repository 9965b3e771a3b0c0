package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs: a body (a pass) that the run repeats until
// its time budget is spent, and the set-up that the run also times on its
// own so that work moved into set-up shows.
type workload interface {
	// setup performs the workload's set-up once, undoes it, and returns
	// its wall time.
	setup(r *runner) (time.Duration, error)
	// pass runs the body once. It reports every output point through
	// r.point and closes each complete set of points with r.endOutput. It
	// returns the body's wall (pass start to the last verified point it
	// counts) and its summed set-up time.
	pass(r *runner) (wall, setup time.Duration, err error)
}

// runner drives passes and verifies their output. Each point becomes one
// canonical line; a line differing from the pinned golden (or, for seeds
// without one, from the same point of the run's first output set), or
// failing its invariant check, is a failed point.
type runner struct {
	tmp string    // scratch root for point stores
	log io.Writer // diagnostics
	tr  *tracer   // nil on untraced passes

	golden []string // pinned lines for this seed; nil = invariants only
	ref    []string // the run's first complete output set

	attempted, failed int
	rssCumulative     bool // the high-water mark could not be reset between passes

	passSpan    int
	passStart   time.Time
	first, last time.Duration // pass start to the first / latest verified point
	lines       []string      // the output set in progress
}

// passStats is one pass's end-to-end timing and peak memory.
type passStats struct {
	wall, setup, first time.Duration
	rssMiB             float64
}

// runPass runs one pass of w. Every pass starts from a collected heap with
// the resident-set high-water mark reset, so its peak RSS is its own. The
// memory the process already holds is reused, as in a long sweep: returning
// it to the OS before each pass made every pass fault its heap back in,
// which on a virtual machine adds host work that varies with the host's
// load (flow-r32's pass-to-pass spread grew by half).
func (r *runner) runPass(w workload) (passStats, error) {
	runtime.GC()
	if err := resetPeakRSS(); err != nil && !r.rssCumulative {
		fmt.Fprintf(r.log, "peak RSS covers the whole process: %v\n", err)
		r.rssCumulative = true
	}
	r.passSpan = r.tr.begin(0, spanPass)
	r.tr.setCur(r.passSpan)
	r.first, r.last = 0, 0
	r.passStart = time.Now()
	wall, setup, err := w.pass(r)
	r.tr.end(r.passSpan)
	if err != nil {
		return passStats{}, err
	}
	rss, err := peakRSS()
	if err != nil {
		return passStats{}, err
	}
	fmt.Fprintf(r.log, "pass (traced=%t): wall %.4fs, set-up %.4fs, first point %.4fs, peak RSS %.1f MiB\n",
		r.tr != nil, wall.Seconds(), setup.Seconds(), r.first.Seconds(), rss)
	return passStats{wall: wall, setup: setup, first: r.first, rssMiB: rss}, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM)
// at the current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// expected returns the lines the current output set must reproduce.
func (r *runner) expected() []string {
	if r.golden != nil {
		return r.golden
	}
	return r.ref
}

// point records one output point. invErr is the point's invariant check
// (or its measurement error); either way it counts as a failed point.
func (r *runner) point(line string, invErr error) {
	i := len(r.lines)
	r.lines = append(r.lines, line)
	r.attempted++
	want := r.expected()
	why := ""
	switch {
	case invErr != nil:
		why = invErr.Error()
	case want != nil && (i >= len(want) || want[i] != line):
		why = "differs from the pinned line"
	}
	if why != "" {
		r.failed++
		fmt.Fprintf(r.log, "FAIL point %d: %s: %s\n", i, why, line)
	}
	r.last = time.Since(r.passStart)
	if r.first == 0 {
		r.first = r.last
	}
}

// endOutput closes one complete output set: points it lacks count as
// failed, and the run's first set becomes the reference for the rest.
func (r *runner) endOutput() {
	if missing := len(r.expected()) - len(r.lines); missing > 0 {
		fmt.Fprintf(r.log, "FAIL: output set has %d points, want %d\n", len(r.lines), len(r.expected()))
		r.attempted += missing
		r.failed += missing
	}
	if r.ref == nil {
		r.ref = append([]string{}, r.lines...)
	}
	r.lines = r.lines[:0]
}

// goldenPath names the pinned lines of one workload and seed.
func goldenPath(dir, name string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.csv", name, seed))
}

// readGolden loads pinned lines; a missing file returns nil, nil.
func readGolden(path string) ([]string, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read golden %s: %w", path, err)
	}
	return lines, nil
}

// writeGolden pins lines for one workload and seed.
func writeGolden(path string, lines []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write golden: %w", err)
	}
	data := strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		return fmt.Errorf("write golden: %w", err)
	}
	return nil
}
