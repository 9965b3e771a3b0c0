package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"sldf/internal/metrics"
)

// JobSpec is a declarative, serializable measurement job: data, not code.
// A spec names a registered executor kind and carries its JSON payload, so
// the identical job can run in-process, be shipped to a worker daemon, or
// be satisfied straight from a store by its content-addressed key.
type JobSpec struct {
	// Key is the job's content address: it must cover every input that
	// affects the result, and doubles as the store key. An empty key
	// disables caching for the job.
	Key string `json:"key"`
	// Kind names the registered executor that interprets Payload.
	Kind string `json:"kind"`
	// Payload is the executor-specific job description.
	Payload json.RawMessage `json:"payload"`
}

// Executor interprets one kind of JobSpec payload. The worker is owned by
// one pool goroutine for the pool's lifetime, so an executor may keep
// state on it that the goroutine's next jobs reuse (see Worker).
type Executor func(w *Worker, payload json.RawMessage) (metrics.Point, error)

var (
	executorsMu sync.RWMutex
	executors   = map[string]Executor{}
)

// RegisterExecutor installs the executor for a spec kind. Kinds should be
// versioned (e.g. "core/point@v1") so payload-schema changes register a new
// kind instead of silently reinterpreting old specs. Registering a kind
// twice panics: two executors for one kind could produce divergent results
// for the same content address.
func RegisterExecutor(kind string, fn Executor) {
	executorsMu.Lock()
	defer executorsMu.Unlock()
	if _, dup := executors[kind]; dup {
		panic(fmt.Sprintf("campaign: executor %q registered twice", kind))
	}
	executors[kind] = fn
}

// ExecutorKinds lists the registered spec kinds, sorted.
func ExecutorKinds() []string {
	executorsMu.RLock()
	defer executorsMu.RUnlock()
	kinds := make([]string, 0, len(executors))
	for k := range executors { //sldf:nondeterministic-ok keys are sorted immediately after collection

		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ExecOptions configure a Backend execution.
type ExecOptions struct {
	// Jobs is the in-process concurrency for backends that execute here
	// (LocalBackend; values <= 1 run serially). Remote backends dispatch
	// one batch per live worker and run measurements at each daemon's own
	// -jobs setting, so they ignore this field.
	Jobs int
	// Store, when non-nil, satisfies specs by key before execution and
	// records fresh results after.
	Store PointStore
}

// Backend executes declarative job specs somewhere — this process, or a
// fleet of worker daemons — and returns their points indexed like the
// input. Every backend must be result-transparent: for the same specs the
// returned points are bitwise identical to a serial in-process run,
// whatever the sharding, concurrency, or mid-run worker failures.
type Backend interface {
	// Name identifies the backend for logs and stats lines.
	Name() string
	// Execute runs the specs. On error the slice still has len(specs) with
	// incomplete slots zero, and the reported error is a *JobError for the
	// failing spec with the lowest index: a backend may skip specs after a
	// failure, but never one below it. Specs sharing a configuration
	// should be contiguous: a worker holds one built system at a time (see
	// Worker).
	Execute(specs []JobSpec, opts ExecOptions) ([]metrics.Point, error)
}

// LocalBackend executes specs on this process: each Execute call runs
// them on a Pool of ExecOptions.Jobs goroutines built for the call.
type LocalBackend struct{}

// Name implements Backend.
func (LocalBackend) Name() string { return "local" }

// Execute implements Backend.
func (LocalBackend) Execute(specs []JobSpec, opts ExecOptions) ([]metrics.Point, error) {
	p := NewPool(min(opts.Jobs, len(specs)), opts.Store)
	defer p.Close()
	return p.Run(specs)
}
