// Package campaign is the execution layer of the sweep pipeline: it turns
// declarative measurement jobs into results, through pluggable seams at
// every stage.
//
//   - Run is the in-process scheduler: jobs fan out over worker
//     goroutines, and the assembled points are bitwise identical no matter
//     how many workers run the jobs or in what order they finish.
//   - JobSpec + the executor registry make jobs data instead of code: a
//     spec names a registered executor and carries a JSON payload, so the
//     same job can run in this process, in a worker daemon on another
//     machine, or be replayed from a store.
//   - Backend abstracts where specs execute (LocalBackend here; the remote
//     subpackage shards them across worker daemons).
//   - Store abstracts where results persist (disk cache, memory LRU, or a
//     tiered combination).
//
// The package is declared deterministic: results feed figures, caches and
// the bitwise serial==parallel==cached equality contract, so sldfcheck
// flags map iteration, global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package campaign

import (
	"sync"

	"sldf/internal/metrics"
)

// Job is one schedulable unit of work producing a measured point.
type Job struct {
	// Key identifies the job's result for the store; an empty key disables
	// caching for this job. Two jobs with equal keys must produce equal
	// results (the key must cover every input that affects the result).
	Key string
	// Run performs the work. The worker is owned by a single goroutine for
	// the worker's lifetime, so Run may freely mutate state cached on it.
	Run func(w *Worker) (metrics.Point, error)
}

// Worker is the per-goroutine context passed to jobs: a one-slot keyed
// store for state that is expensive to construct (a built system) and is
// reused across consecutive jobs that land on the same worker and share its
// key. Callers order their jobs so that each key arrives in one contiguous
// run, which makes a single slot enough: storing a new key closes the held
// value, so a worker never keeps more than one built system. A job that
// builds expensive state calls Close before building, so the old value is
// not still reachable while the new one is built.
type Worker struct {
	key   string
	value any
}

// Cached returns the value held under key, if any.
func (w *Worker) Cached(key string) (any, bool) {
	if w.value == nil || w.key != key {
		return nil, false
	}
	return w.value, true
}

// Store holds v under key. A value held under another key is closed (if it
// implements Close()) and dropped; the held value is also closed when the
// campaign run finishes.
func (w *Worker) Store(key string, v any) {
	if w.value != nil && w.key != key {
		w.Close()
	}
	w.key, w.value = key, v
}

// Close releases the held value if it knows how to release itself.
// Long-lived owners (worker pools) call it when retiring a worker; Run
// closes its workers itself.
func (w *Worker) Close() {
	if c, ok := w.value.(interface{ Close() }); ok {
		c.Close()
	}
	w.key, w.value = "", nil
}

// Options configure a campaign run.
type Options struct {
	// Jobs is the number of concurrent jobs; values <= 1 run serially on
	// the calling goroutine.
	Jobs int
	// Store, when non-nil, is consulted before and updated after every job
	// with a non-empty Key.
	Store PointStore
}

// JobError is a job's own failure as Run and every Backend report it: the
// failing job's index with its error. A caller that merges several figures
// into one run maps the index back to the figure that failed.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return e.Err.Error() }

func (e *JobError) Unwrap() error { return e.Err }

// Run executes the jobs and returns their results indexed like the input.
// Jobs are handed out in input order to Jobs workers, each holding one
// Worker for the run, so a caller that groups jobs by the state they reuse
// (see Worker) has each worker build that state about once per group.
// On error the returned slice still has len(jobs) but slots whose jobs did
// not complete are zero; the error reported is a *JobError for the failing
// job with the lowest index among those that ran.
func Run(jobs []Job, opts Options) ([]metrics.Point, error) {
	results := make([]metrics.Point, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}

	workers := opts.Jobs
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		w := &Worker{}
		defer w.Close()
		for i := range jobs {
			if err := runOne(&jobs[i], w, opts.Store, &results[i]); err != nil {
				return results, &JobError{Index: i, Err: err}
			}
		}
		return results, nil
	}

	var (
		idx      = make(chan int)
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errIdx   = len(jobs)
		failed   bool
	)
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{}
			defer w.Close()
			for i := range idx {
				mu.Lock()
				stop := failed
				mu.Unlock()
				if stop {
					continue
				}
				if err := runOne(&jobs[i], w, opts.Store, &results[i]); err != nil {
					mu.Lock()
					if !failed || i < errIdx {
						firstErr, errIdx, failed = err, i, true
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if failed {
		return results, &JobError{Index: errIdx, Err: firstErr}
	}
	return results, nil
}

// runOne executes a single job through the store.
func runOne(j *Job, w *Worker, store PointStore, out *metrics.Point) error {
	if j.Key != "" && store != nil {
		if v, ok := store.Get(j.Key); ok {
			*out = v
			return nil
		}
	}
	v, err := j.Run(w)
	if err != nil {
		return err
	}
	*out = v
	if j.Key != "" && store != nil {
		// A failed store write must not discard a successfully computed
		// result; stores count the failure for end-of-run reporting.
		_ = store.Put(j.Key, v)
	}
	return nil
}
