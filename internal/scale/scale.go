// Package scale finds the simulator's soft scaling ceilings.
//
// A scale run grows exactly one dimension — system size in chips, injected
// fault fraction, or concurrent campaign jobs — step by step until a step
// fails validation (build error, routing failure, conservation violation),
// its run trips the progress watchdog, or a resource budget trips (per-step
// wall clock, resident set size). Every step records its build/sim wall
// time and memory footprint, so the output is a trajectory ending in a
// ceiling: the largest value of the dimension the simulator handled within
// budget. Campaign CI tracks these ceilings across revisions the same way
// it tracks benchmark medians (see BENCH_*.json).
package scale

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sldf/internal/netsim"
)

// Sample records one step of a growth run.
type Sample struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
	Chips int     `json:"chips,omitempty"`
	// BuildMS/SimMS split the step's wall time into construction and
	// simulation; HeapMB is the live heap with the system still built;
	// RSSMB is the process resident set after the step (a high-water
	// approximation: the Go runtime returns freed spans lazily).
	BuildMS float64 `json:"build_ms"`
	SimMS   float64 `json:"sim_ms"`
	HeapMB  float64 `json:"heap_mb"`
	RSSMB   float64 `json:"rss_mb"`
	// HeapPerChip is bytes of live heap per terminal chip, the figure of
	// merit for memory-layout work (zero when the step has no chip count).
	HeapPerChip float64 `json:"heap_per_chip,omitempty"`
	OK          bool    `json:"ok"`
	Err         string  `json:"err,omitempty"`
}

// Budget bounds a growth run. Zero fields are unlimited.
type Budget struct {
	// MaxStepWall stops growth after a step whose build+sim wall time
	// exceeds it (the step itself still counts toward the ceiling).
	MaxStepWall time.Duration
	// MaxRSS fails the step after which the process resident set exceeds
	// it: that step is recorded but does not count toward the ceiling.
	MaxRSS uint64
	// MaxSteps bounds the number of steps attempted.
	MaxSteps int
}

// StepInfo is what a step's Run reports back on success (and as much as it
// measured on failure).
type StepInfo struct {
	Chips     int
	Value     float64 // dimension coordinate override (0 = use Step.Value)
	BuildWall time.Duration
	SimWall   time.Duration
	HeapBytes uint64 // live heap while the system is built (see HeapLive)
}

// Step is one point along a dimension.
type Step struct {
	Label string
	Value float64
	Run   func() (StepInfo, error)
}

// Dimension enumerates the steps of one growth axis in increasing order.
type Dimension struct {
	Name string
	// Step returns the i-th step (from 0); ok=false ends the range.
	Step func(i int) (step Step, ok bool)
}

// Trip reasons reported by Report.Tripped.
const (
	TripValidation = "validation"   // a step failed to build, run, or conserve packets
	TripWatchdog   = "watchdog"     // a step's run tripped the progress watchdog (netsim.ErrDeadlock)
	TripWall       = "step-wall"    // a step exceeded Budget.MaxStepWall
	TripRSS        = "rss"          // a step left the resident set above Budget.MaxRSS
	TripSteps      = "max-steps"    // Budget.MaxSteps reached
	TripEnd        = "end-of-range" // the dimension ran out of steps
)

// errOverRSS fails a step that left the resident set above Budget.MaxRSS.
var errOverRSS = errors.New("resident set over budget")

// Report is the outcome of one growth run.
type Report struct {
	Dimension string   `json:"dimension"`
	Tripped   string   `json:"tripped"`
	Ceiling   *Sample  `json:"ceiling,omitempty"` // last passing sample
	Samples   []Sample `json:"samples"`
}

// Run grows d until validation fails or b trips, reporting the trajectory.
// logf (may be nil) receives one progress line per step.
func Run(d Dimension, b Budget, logf func(format string, args ...any)) Report {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := Report{Dimension: d.Name}
	for i := 0; ; i++ {
		if b.MaxSteps > 0 && i >= b.MaxSteps {
			rep.Tripped = TripSteps
			return rep
		}
		step, ok := d.Step(i)
		if !ok {
			rep.Tripped = TripEnd
			return rep
		}
		info, err := step.Run()
		rss := rssBytes()
		if err == nil && b.MaxRSS > 0 && rss > b.MaxRSS {
			err = fmt.Errorf("%w: %.1f MB > %.1f MB", errOverRSS,
				float64(rss)/(1<<20), float64(b.MaxRSS)/(1<<20))
		}
		s := Sample{
			Label:   step.Label,
			Value:   step.Value,
			Chips:   info.Chips,
			BuildMS: float64(info.BuildWall) / float64(time.Millisecond),
			SimMS:   float64(info.SimWall) / float64(time.Millisecond),
			HeapMB:  float64(info.HeapBytes) / (1 << 20),
			RSSMB:   float64(rss) / (1 << 20),
			OK:      err == nil,
		}
		if info.Value != 0 {
			s.Value = info.Value
		}
		if info.Chips > 0 {
			s.HeapPerChip = float64(info.HeapBytes) / float64(info.Chips)
		}
		if err != nil {
			s.Err = err.Error()
			rep.Samples = append(rep.Samples, s)
			logf("%s %s: FAIL after %.0f ms: %v", d.Name, s.Label, s.BuildMS+s.SimMS, err)
			switch {
			case errors.Is(err, errOverRSS):
				rep.Tripped = TripRSS
			case errors.Is(err, netsim.ErrDeadlock):
				rep.Tripped = TripWatchdog
			default:
				rep.Tripped = TripValidation
			}
			return rep
		}
		rep.Samples = append(rep.Samples, s)
		rep.Ceiling = &rep.Samples[len(rep.Samples)-1]
		logf("%s %s: ok — build %.0f ms, sim %.0f ms, heap %.1f MB, rss %.1f MB",
			d.Name, s.Label, s.BuildMS, s.SimMS, s.HeapMB, s.RSSMB)
		wall := info.BuildWall + info.SimWall
		if b.MaxStepWall > 0 && wall > b.MaxStepWall {
			rep.Tripped = TripWall
			return rep
		}
	}
}

// HeapLive forces a collection and returns the live heap, for steps to
// capture their footprint while the system under test is still built.
func HeapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rssBytes reads the resident set size from /proc/self/statm, or 0 when the
// proc filesystem is unavailable (non-Linux).
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
