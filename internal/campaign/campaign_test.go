package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sldf/internal/metrics"
)

// probeKind is the test executor behind the pool tests: it counts its
// runs, returns a point that encodes its index, and on request holds a
// probeSys on its worker or fails with errBoom.
const probeKind = "campaign-test/probe@v1"

type probePayload struct {
	I    int  `json:"i"`
	Hold bool `json:"hold,omitempty"` // reuse the worker's "sys", building it if absent
	Fail bool `json:"fail,omitempty"`
}

var (
	errBoom     = errors.New("boom")
	probeRuns   atomic.Int64
	probeBuilds atomic.Int64
	probeClosed atomic.Bool
)

// probeSys is the state a holding probe keeps on its worker; closing it
// is recorded in probeClosed.
type probeSys struct{}

func (probeSys) Close() { probeClosed.Store(true) }

func init() {
	RegisterExecutor(probeKind, func(w *Worker, payload json.RawMessage) (metrics.Point, error) {
		var p probePayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return metrics.Point{}, err
		}
		probeRuns.Add(1)
		if p.Hold {
			if _, ok := w.Cached("sys"); !ok {
				probeBuilds.Add(1)
				w.Store("sys", probeSys{})
			}
		}
		if p.Fail {
			return metrics.Point{}, errBoom
		}
		return metrics.Point{Rate: float64(p.I), Latency: float64(p.I * 10)}, nil
	})
}

// probeSpecs builds n probe specs whose points encode their own index, so
// result placement can be checked regardless of scheduling order. keyed
// gives each a store key; edit, when non-nil, adjusts each payload.
func probeSpecs(t *testing.T, n int, keyed bool, edit func(i int, p *probePayload)) []JobSpec {
	t.Helper()
	specs := make([]JobSpec, n)
	for i := range specs {
		p := probePayload{I: i}
		if edit != nil {
			edit(i, &p)
		}
		payload, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = JobSpec{Kind: probeKind, Payload: payload}
		if keyed {
			specs[i].Key = fmt.Sprintf("point-%d", i)
		}
	}
	return specs
}

// resetProbe zeroes the probe counters before a test reads them.
func resetProbe() {
	probeRuns.Store(0)
	probeBuilds.Store(0)
	probeClosed.Store(false)
}

func TestRunOrdersResultsForAnyWorkerCount(t *testing.T) {
	want, err := LocalBackend{}.Execute(probeSpecs(t, 23, false, nil), ExecOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range want {
		if pt.Rate != float64(i) {
			t.Fatalf("serial run put job %v's point in slot %d", pt.Rate, i)
		}
	}
	for _, jobs := range []int{2, 4, 16, 100} {
		got, err := LocalBackend{}.Execute(probeSpecs(t, 23, false, nil), ExecOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: results diverged from serial run", jobs)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	pts, err := LocalBackend{}.Execute(nil, ExecOptions{Jobs: 4})
	if err != nil || len(pts) != 0 {
		t.Fatalf("empty run: %v, %v", pts, err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	specs := probeSpecs(t, 8, false, func(i int, p *probePayload) { p.Fail = i == 3 })
	for _, n := range []int{1, 4} {
		_, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: n})
		if !errors.Is(err, errBoom) {
			t.Fatalf("jobs=%d: error %v, want %v", n, err, errBoom)
		}
		var je *JobError
		if !errors.As(err, &je) || je.Index != 3 {
			t.Fatalf("jobs=%d: error %#v, want a *JobError for job 3", n, err)
		}
	}
}

// closeable records whether it was closed.
type closeable struct{ closed *bool }

func (c closeable) Close() { *c.closed = true }

func TestWorkerStateReusedAndClosed(t *testing.T) {
	resetProbe()
	specs := probeSpecs(t, 10, false, func(_ int, p *probePayload) { p.Hold = true })
	if _, err := (LocalBackend{}).Execute(specs, ExecOptions{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if builds := probeBuilds.Load(); builds != 1 {
		t.Fatalf("serial run built %d times, want 1 (worker state not reused)", builds)
	}
	if !probeClosed.Load() {
		t.Fatal("worker state not closed after the run")
	}
}

func TestWorkerStateClosedOnError(t *testing.T) {
	resetProbe()
	specs := probeSpecs(t, 1, false, func(_ int, p *probePayload) { p.Hold, p.Fail = true, true })
	if _, err := (LocalBackend{}).Execute(specs, ExecOptions{Jobs: 1}); err == nil {
		t.Fatal("error not propagated")
	}
	if !probeClosed.Load() {
		t.Fatal("worker state leaked on the error path")
	}
}

// TestPoolSharedAcrossRuns checks the long-lived pool a worker daemon
// keeps: concurrent Run calls share its goroutines and each gets its own
// results and lowest-index error; Stats counts only the specs that ran;
// Close releases worker state and refuses later runs.
func TestPoolSharedAcrossRuns(t *testing.T) {
	resetProbe()
	p := NewPool(1, nil)
	ok := probeSpecs(t, 6, false, func(_ int, p *probePayload) { p.Hold = true })
	bad := probeSpecs(t, 6, false, func(i int, p *probePayload) { p.Fail = i == 1 || i == 4 })
	want, err := LocalBackend{}.Execute(ok, ExecOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	resetProbe()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	pts := make([][]metrics.Point, 4)
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := ok
			if r%2 == 1 {
				specs = bad
			}
			pts[r], errs[r] = p.Run(specs)
		}()
	}
	wg.Wait()
	for r := range errs {
		var je *JobError
		switch {
		case r%2 == 0 && (errs[r] != nil || !reflect.DeepEqual(pts[r], want)):
			t.Fatalf("run %d: %v, points %v; want %v", r, errs[r], pts[r], want)
		case r%2 == 1 && (!errors.As(errs[r], &je) || je.Index != 1):
			t.Fatalf("run %d: error %v, want a *JobError for job 1", r, errs[r])
		}
	}
	// With one goroutine a failing run stops right after its failure: each
	// of the two runs its jobs 0 and 1 and skips 2-5.
	if st, want := p.Stats(), (PoolStats{Jobs: 2*6 + 2*2, JobErrors: 2}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if probeBuilds.Load() < 1 || probeClosed.Load() {
		t.Fatalf("builds=%d closed=%v before Close", probeBuilds.Load(), probeClosed.Load())
	}
	p.Close()
	p.Close()
	if !probeClosed.Load() {
		t.Fatal("Close did not release worker state")
	}
	if _, err := p.Run(ok); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run after Close: %v, want ErrPoolClosed", err)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pt := metrics.Point{Rate: 0.3, Latency: 41.5, P50: 38, P99: 120, Throughput: 0.29}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put("k1", pt); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok || !reflect.DeepEqual(got, pt) {
		t.Fatalf("round trip: %+v, ok=%v", got, ok)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	// A second Open over the same directory sees the entry (persistence).
	c2, err := OpenCache(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get("k1"); !ok || !reflect.DeepEqual(got, pt) {
		t.Fatal("entry not persistent across opens")
	}
}

func TestRunUsesCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	resetProbe()
	opts := ExecOptions{Jobs: 1, Store: cache}
	cold, err := LocalBackend{}.Execute(probeSpecs(t, 6, true, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs := probeRuns.Load(); runs != 6 {
		t.Fatalf("cold run executed %d jobs, want 6", runs)
	}
	warm, err := LocalBackend{}.Execute(probeSpecs(t, 6, true, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs := probeRuns.Load(); runs != 6 {
		t.Fatalf("warm run re-executed jobs (%d total runs)", runs)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cache replay diverged from cold run")
	}
}

func TestRunSurvivesCacheWriteFailure(t *testing.T) {
	dir := t.TempDir() + "/gone"
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Pull the directory out from under the cache: every Put now fails,
	// but measured points must still be returned.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	specs := probeSpecs(t, 2, true, nil)[1:]
	pts, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: 1, Store: cache})
	if err != nil {
		t.Fatalf("cache write failure aborted the run: %v", err)
	}
	if pts[0].Rate != 1 {
		t.Fatalf("point lost: %+v", pts[0])
	}
	if cache.PutFails() == 0 {
		t.Fatal("write failure not counted")
	}
}

func TestCacheRejectsForeignEntry(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("real-key", metrics.Point{Rate: 1}); err != nil {
		t.Fatal(err)
	}
	// A different key must miss even though the cache is non-empty.
	if _, ok := c.Get("other-key"); ok {
		t.Fatal("foreign key hit")
	}
}

func TestWorkerHoldsOneValue(t *testing.T) {
	w := &Worker{}
	var aClosed, bClosed bool
	a, b := closeable{closed: &aClosed}, closeable{closed: &bClosed}
	w.Store("a", a)
	w.Store("a", a)
	if v, ok := w.Cached("a"); !ok || v != a {
		t.Fatalf("Cached(a) = %v, %v; want the held value", v, ok)
	}
	if aClosed {
		t.Fatal("re-storing or fetching the held key closed it")
	}
	w.Store("b", b)
	if !aClosed {
		t.Fatal("storing a second key did not close the first")
	}
	if _, ok := w.Cached("a"); ok {
		t.Fatal("first key still held after a second was stored")
	}
	if v, ok := w.Cached("b"); !ok || v != b {
		t.Fatalf("Cached(b) = %v, %v; want the held value", v, ok)
	}
	w.Close()
	if !bClosed {
		t.Fatal("Close did not release the held value")
	}
	if _, ok := w.Cached("b"); ok {
		t.Fatal("value still held after Close")
	}
}
