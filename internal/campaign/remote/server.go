package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
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
// http.Handler executing batches of declarative job specs on a
// campaign.Pool it keeps for its lifetime, so each pool goroutine keeps the
// system it built last across requests.
type Server struct {
	opts ServerOptions
	pool *campaign.Pool
	// maxBody is the /run body cap (MaxRunBody; lowered by tests).
	maxBody int64

	requests   atomic.Int64
	badPayload atomic.Int64
}

// NewServer starts the worker pool and returns the ready-to-serve server.
// Close releases the pool.
func NewServer(opts ServerOptions) *Server {
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	return &Server{opts: opts, pool: campaign.NewPool(opts.Jobs, opts.Store), maxBody: MaxRunBody}
}

// Close stops accepting jobs, drains the queue and releases the pool's
// worker state. In-flight requests complete.
func (s *Server) Close() { s.pool.Close() }

// ServeHTTP implements the protocol's three endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/run" && r.Method == http.MethodPost:
		s.handleRun(w, r)
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		writeJSON(w, healthResponse{OK: true, Workers: s.opts.Jobs, Kinds: campaign.ExecutorKinds()})
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		st := s.pool.Stats()
		writeJSON(w, statsResponse{
			Requests:   s.requests.Load(),
			Jobs:       st.Jobs,
			JobErrors:  st.JobErrors,
			StoreHits:  st.StoreHits,
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
	pts, err := s.pool.Run(req.Jobs)
	if errors.Is(err, campaign.ErrPoolClosed) {
		http.Error(w, "server closed", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, runResponse{Results: batchResults(pts, err)})
}

// batchResults pairs a batch's points with its failure. The pool starts no
// spec after a failing one, so every later slot reports a failure too: an
// empty Err would read as a measured zero point.
func batchResults(pts []metrics.Point, err error) []jobResult {
	results := make([]jobResult, len(pts))
	for i, pt := range pts {
		results[i].Point = pt
	}
	var je *campaign.JobError
	if errors.As(err, &je) {
		results[je.Index].Err = je.Err.Error()
		for i := je.Index + 1; i < len(results); i++ {
			results[i] = jobResult{Err: fmt.Sprintf("not run: job %d of its batch failed", je.Index)}
		}
	}
	return results
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
