package campaign

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"sldf/internal/metrics"
)

// indexJobs builds n jobs whose points encode their own index, so result
// placement can be checked regardless of scheduling order.
func indexJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Run: func(w *Worker) (metrics.Point, error) {
			return metrics.Point{Rate: float64(i), Latency: float64(i * 10)}, nil
		}}
	}
	return jobs
}

func TestRunOrdersResultsForAnyWorkerCount(t *testing.T) {
	want, err := Run(indexJobs(23), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 4, 16, 100} {
		got, err := Run(indexJobs(23), Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: results diverged from serial run", jobs)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	pts, err := Run(nil, Options{Jobs: 4})
	if err != nil || len(pts) != 0 {
		t.Fatalf("empty run: %v, %v", pts, err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	jobs := indexJobs(8)
	jobs[3].Run = func(w *Worker) (metrics.Point, error) { return metrics.Point{}, boom }
	for _, n := range []int{1, 4} {
		_, err := Run(jobs, Options{Jobs: n})
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: error %v, want %v", n, err, boom)
		}
		var je *JobError
		if !errors.As(err, &je) || je.Index != 3 {
			t.Fatalf("jobs=%d: error %#v, want a *JobError for job 3", n, err)
		}
	}
}

// closeable records whether the campaign closed it after the run.
type closeable struct{ closed *bool }

func (c closeable) Close() { *c.closed = true }

func TestWorkerStateReusedAndClosed(t *testing.T) {
	var builds int
	var closed bool
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Run: func(w *Worker) (metrics.Point, error) {
			if _, ok := w.Cached("sys"); !ok {
				builds++
				w.Store("sys", closeable{closed: &closed})
			}
			return metrics.Point{}, nil
		}}
	}
	if _, err := Run(jobs, Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("serial run built %d times, want 1 (worker state not reused)", builds)
	}
	if !closed {
		t.Fatal("worker state not closed after the run")
	}
}

func TestWorkerStateClosedOnError(t *testing.T) {
	var closed bool
	jobs := []Job{{Run: func(w *Worker) (metrics.Point, error) {
		w.Store("sys", closeable{closed: &closed})
		return metrics.Point{}, errors.New("boom")
	}}}
	if _, err := Run(jobs, Options{Jobs: 1}); err == nil {
		t.Fatal("error not propagated")
	}
	if !closed {
		t.Fatal("worker state leaked on the error path")
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
	var runs int
	mkJobs := func() []Job {
		jobs := make([]Job, 6)
		for i := range jobs {
			jobs[i] = Job{
				Key: fmt.Sprintf("point-%d", i),
				Run: func(w *Worker) (metrics.Point, error) {
					runs++
					return metrics.Point{Rate: float64(i)}, nil
				},
			}
		}
		return jobs
	}
	cold, err := Run(mkJobs(), Options{Jobs: 1, Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 6 {
		t.Fatalf("cold run executed %d jobs, want 6", runs)
	}
	warm, err := Run(mkJobs(), Options{Jobs: 1, Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 6 {
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
	jobs := []Job{{Key: "k", Run: func(w *Worker) (metrics.Point, error) {
		return metrics.Point{Rate: 0.5}, nil
	}}}
	pts, err := Run(jobs, Options{Jobs: 1, Store: cache})
	if err != nil {
		t.Fatalf("cache write failure aborted the run: %v", err)
	}
	if pts[0].Rate != 0.5 {
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
