package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"sldf/internal/campaign"
)

// ServerOptions configure a worker daemon's job execution.
type ServerOptions struct {
	// Jobs is the number of persistent worker goroutines executing specs
	// (<= 0 means 1). Each keeps the last system it built (reset between
	// points) and replaces it when a spec needs another configuration, so
	// a daemon holds at most Jobs built systems.
	Jobs int
	// Store, when non-nil, satisfies specs by key before execution and
	// records fresh results — the daemon's local tier of the result store.
	Store campaign.PointStore
}

// MaxRunBody caps the size of a /run request body. A job spec is a few
// hundred bytes, so the cap is far past any real batch; it only keeps a
// runaway or hostile client from making the daemon buffer without bound.
const MaxRunBody = 64 << 20

// Server is the worker side of the coordinator/worker protocol: an
// http.Handler executing batches of declarative job specs on a persistent
// in-process worker pool.
type Server struct {
	opts  ServerOptions
	tasks chan task
	wg    sync.WaitGroup
	mu    sync.RWMutex
	done  bool
	// maxBody is the /run body cap (MaxRunBody; lowered by tests).
	maxBody int64

	requests   atomic.Int64
	jobs       atomic.Int64
	jobErrors  atomic.Int64
	storeHits  atomic.Int64
	badPayload atomic.Int64
}

// task is one spec queued to the pool with its pre-assigned result slot.
type task struct {
	spec campaign.JobSpec
	out  *jobResult
	wg   *sync.WaitGroup
}

// NewServer starts the worker pool and returns the ready-to-serve server.
// Close releases the pool.
func NewServer(opts ServerOptions) *Server {
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	s := &Server{opts: opts, tasks: make(chan task), maxBody: MaxRunBody}
	for i := 0; i < opts.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker owns one campaign.Worker for the server's lifetime, so the system
// a job built is reused by the following jobs of its configuration, across
// requests too.
func (s *Server) worker() {
	defer s.wg.Done()
	w := &campaign.Worker{}
	defer w.Close()
	for t := range s.tasks {
		s.runTask(w, t)
	}
}

// runTask executes one spec through the store, mirroring the local
// scheduler's semantics.
func (s *Server) runTask(w *campaign.Worker, t task) {
	defer t.wg.Done()
	s.jobs.Add(1)
	key := t.spec.Key
	if key != "" && s.opts.Store != nil {
		if pt, ok := s.opts.Store.Get(key); ok {
			s.storeHits.Add(1)
			t.out.Point = pt
			return
		}
	}
	pt, err := campaign.ExecuteSpec(w, t.spec)
	if err != nil {
		s.jobErrors.Add(1)
		t.out.Err = err.Error()
		return
	}
	t.out.Point = pt
	if key != "" && s.opts.Store != nil {
		_ = s.opts.Store.Put(key, pt)
	}
}

// Close stops accepting jobs, drains the queue and releases the pool's
// worker state. In-flight requests complete.
func (s *Server) Close() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	close(s.tasks)
	s.mu.Unlock()
	s.wg.Wait()
}

// ServeHTTP implements the protocol's three endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/run" && r.Method == http.MethodPost:
		s.handleRun(w, r)
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		writeJSON(w, healthResponse{OK: true, Workers: s.opts.Jobs, Kinds: campaign.ExecutorKinds()})
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		writeJSON(w, statsResponse{
			Requests:   s.requests.Load(),
			Jobs:       s.jobs.Load(),
			JobErrors:  s.jobErrors.Load(),
			StoreHits:  s.storeHits.Load(),
			BadPayload: s.badPayload.Load(),
		})
	default:
		http.NotFound(w, r)
	}
}

// handleRun executes one batch and replies with per-job results in request
// order. A body past the size cap is refused with 413, like any other bad
// payload, before it is buffered.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req runRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.badPayload.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("decode run request: %v", err), status)
		return
	}
	results := make([]jobResult, len(req.Jobs))
	var wg sync.WaitGroup

	s.mu.RLock()
	if s.done {
		s.mu.RUnlock()
		http.Error(w, "server closed", http.StatusServiceUnavailable)
		return
	}
	wg.Add(len(req.Jobs))
	for i := range req.Jobs {
		s.tasks <- task{spec: req.Jobs[i], out: &results[i], wg: &wg}
	}
	s.mu.RUnlock()
	wg.Wait()
	writeJSON(w, runResponse{Results: results})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
