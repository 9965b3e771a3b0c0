package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
)

// DefaultBatchSize is the number of specs per worker request. Small enough
// that a worker loss mid-run forfeits little work, large enough that a
// worker amortizes system construction across the batch's points.
const DefaultBatchSize = 8

// Options configure the coordinator.
type Options struct {
	// BatchSize caps the specs per request (<= 0 uses DefaultBatchSize).
	BatchSize int
	// Client is the HTTP client for worker requests; nil uses a client
	// without timeout (simulations can legitimately run for minutes —
	// liveness is probed separately with HealthTimeout).
	Client *http.Client
	// HealthTimeout bounds a /healthz probe (<= 0 means 5s).
	HealthTimeout time.Duration
	// MaxStrikes is the number of consecutive transport failures after
	// which a worker is retired for the run (<= 0 uses 3). A success
	// resets the count, so transient drops cost a retry, not the worker.
	MaxStrikes int
}

// Backend is the coordinator side of the protocol: a campaign.Backend that
// shards job specs across worker daemons, re-shards on worker loss, and
// merges results deterministically by spec index.
type Backend struct {
	addrs []string
	opts  Options
}

// New returns a coordinator over the given worker addresses
// (host:port or full http:// URLs).
func New(addrs []string, opts Options) (*Backend, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: no worker addresses")
	}
	norm := make([]string, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("remote: empty worker address")
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		norm[i] = strings.TrimRight(a, "/")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = 5 * time.Second
	}
	if opts.MaxStrikes <= 0 {
		opts.MaxStrikes = 3
	}
	return &Backend{addrs: norm, opts: opts}, nil
}

// Name implements campaign.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("remote(%d workers)", len(b.addrs))
}

// Check probes every worker's /healthz and reports the unreachable ones.
func (b *Backend) Check() error {
	client := &http.Client{Timeout: b.opts.HealthTimeout}
	var dead []string
	for _, addr := range b.addrs {
		resp, err := client.Get(addr + "/healthz")
		if err != nil {
			dead = append(dead, fmt.Sprintf("%s (%v)", addr, err))
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			dead = append(dead, fmt.Sprintf("%s (status %d)", addr, resp.StatusCode))
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("remote: %d of %d workers unhealthy: %s",
			len(dead), len(b.addrs), strings.Join(dead, "; "))
	}
	return nil
}

// batch is a contiguous chunk of spec indices dispatched as one request.
// home is the worker that takes it first.
type batch struct {
	idxs     []int
	home     int
	attempts int
}

// Execute implements campaign.Backend. Specs already satisfied by the
// store never leave the coordinator; the rest are batched and fanned out
// across the workers. A worker whose request fails at the transport level
// is retired and its batch re-queued for the survivors, so any prefix of
// worker deaths short of all of them still completes the run with
// bitwise-identical results (jobs are content-addressed and deterministic,
// so duplicate execution after a dropped response merges to the same
// bytes). Application-level job errors are deterministic and not retried;
// the lowest-index one is reported after the run drains.
func (b *Backend) Execute(specs []campaign.JobSpec, opts campaign.ExecOptions) ([]metrics.Point, error) {
	results := make([]metrics.Point, len(specs))
	if len(specs) == 0 {
		return results, nil
	}

	// Coordinator-side store pass: replay known points, ship the rest.
	var pending []int
	for i, spec := range specs {
		if spec.Key != "" && opts.Store != nil {
			if pt, ok := opts.Store.Get(spec.Key); ok {
				results[i] = pt
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results, nil
	}

	// Batches cap at BatchSize but shrink for small runs, so a sweep with
	// fewer points than BatchSize × workers still spreads across the fleet
	// instead of landing on whichever worker grabs the queue first.
	batchSize := (len(pending) + len(b.addrs) - 1) / len(b.addrs)
	if batchSize > b.opts.BatchSize {
		batchSize = b.opts.BatchSize
	}
	if batchSize < 1 {
		batchSize = 1
	}
	var queue []batch
	for lo := 0; lo < len(pending); lo += batchSize {
		hi := lo + batchSize
		if hi > len(pending) {
			hi = len(pending)
		}
		queue = append(queue, batch{idxs: pending[lo:hi], home: len(queue) % len(b.addrs)})
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		inflight int
		jobErr   error
		jobErrAt = len(specs)
		lastFail error
		gaveUp   bool
		wg       sync.WaitGroup
	)
	// A batch that keeps failing wherever it lands (every response dropped)
	// must not ping-pong forever; after enough attempts to have visited the
	// whole fleet repeatedly, the run gives up.
	maxAttempts := b.opts.MaxStrikes * len(b.addrs) * 2

	// A worker takes its own batches first, then the lowest-index one left
	// whose home is retired or has another batch queued: a live worker's
	// last queued batch is left to it, and it takes that batch as soon as it
	// is free. Batch k is homed on worker k mod n, so rerunning the same
	// specs sends every batch that was not taken over to the daemon that
	// ran it before, where that daemon's store answers it.
	retired := make([]bool, len(b.addrs))
	pick := func(w int) int {
		k := -1
		for j, bt := range queue {
			if bt.home == w {
				return j
			}
			if k < 0 && (retired[bt.home] || slices.ContainsFunc(queue[j+1:],
				func(o batch) bool { return o.home == bt.home })) {
				k = j
			}
		}
		return k
	}
	worker := func(w int, addr string) {
		defer wg.Done()
		strikes := 0
		for {
			mu.Lock()
			k := pick(w)
			for k < 0 && (len(queue) > 0 || inflight > 0) && !gaveUp {
				cond.Wait()
				k = pick(w)
			}
			if k < 0 || gaveUp {
				mu.Unlock()
				return // drained (or aborted): nothing left to take
			}
			bt := queue[k]
			queue = slices.Delete(queue, k, k+1)
			inflight++
			mu.Unlock()

			resp, err := b.post(addr, specs, bt)

			mu.Lock()
			inflight--
			if err != nil {
				// Transport failure: requeue the batch for the fleet. A
				// worker failing MaxStrikes times in a row is retired for
				// the run; a batch exceeding its attempt budget aborts it.
				bt.attempts++
				bt.home = (w + 1) % len(b.addrs)
				lastFail = fmt.Errorf("remote: worker %s: %w", addr, err)
				if bt.attempts >= maxAttempts {
					gaveUp = true
				} else {
					queue = append(queue, bt)
				}
				strikes++
				retired[w] = strikes >= b.opts.MaxStrikes
				cond.Broadcast()
				mu.Unlock()
				if retired[w] { // only this goroutine writes retired[w]
					return
				}
				continue
			}
			strikes = 0
			for k, idx := range bt.idxs {
				r := resp.Results[k]
				if r.Err != "" {
					if idx < jobErrAt {
						jobErr = &campaign.JobError{Index: idx,
							Err: fmt.Errorf("remote: job %d (%s): %s", idx, specs[idx].Key, r.Err)}
						jobErrAt = idx
					}
					continue
				}
				results[idx] = r.Point
			}
			cond.Broadcast()
			mu.Unlock()

			// Persist outside the scheduler lock: a disk-backed store
			// fsyncs per point, and that must not serialize the fleet's
			// batch dispatch. Each result index is owned by exactly one
			// batch, so the unlocked writes cannot race.
			if opts.Store != nil {
				for k, idx := range bt.idxs {
					if specs[idx].Key != "" && resp.Results[k].Err == "" {
						_ = opts.Store.Put(specs[idx].Key, resp.Results[k].Point)
					}
				}
			}
		}
	}

	wg.Add(len(b.addrs))
	for w, addr := range b.addrs {
		go worker(w, addr)
	}
	wg.Wait()

	if jobErr != nil {
		return results, jobErr
	}
	if gaveUp {
		return results, fmt.Errorf("remote: batch abandoned after %d failed attempts (last: %v)",
			maxAttempts, lastFail)
	}
	if len(queue) > 0 {
		left := 0
		for _, bt := range queue {
			left += len(bt.idxs)
		}
		return results, fmt.Errorf("remote: %d of %d jobs unexecuted, all %d workers failed (last: %v)",
			left, len(specs), len(b.addrs), lastFail)
	}
	return results, nil
}

// post ships one batch to a worker and decodes its results.
func (b *Backend) post(addr string, specs []campaign.JobSpec, bt batch) (runResponse, error) {
	req := runRequest{Jobs: make([]campaign.JobSpec, len(bt.idxs))}
	for k, idx := range bt.idxs {
		req.Jobs[k] = specs[idx]
	}
	body, err := json.Marshal(req)
	if err != nil {
		return runResponse{}, fmt.Errorf("encode batch: %w", err)
	}
	httpResp, err := b.opts.Client.Post(addr+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return runResponse{}, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return runResponse{}, fmt.Errorf("status %s", httpResp.Status)
	}
	var resp runResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return runResponse{}, fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Results) != len(bt.idxs) {
		return runResponse{}, fmt.Errorf("response has %d results for %d jobs",
			len(resp.Results), len(bt.idxs))
	}
	return resp, nil
}
