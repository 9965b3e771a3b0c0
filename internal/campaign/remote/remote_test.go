package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
)

// The cluster tests emulate a coordinator over N in-process worker daemons
// (httptest servers) with seeded random faults — workers killed mid-run,
// responses dropped after execution — and assert that the merged results
// stay bitwise identical to a serial local run (d7024e M4 style: drops and
// deaths are part of normal operation, not test failures).

const clusterExecKind = "remote-test/poly@v1"

type clusterPayload struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

func init() {
	campaign.RegisterExecutor(clusterExecKind, func(w *campaign.Worker, payload json.RawMessage) (metrics.Point, error) {
		var p clusterPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return metrics.Point{}, err
		}
		if p.A < 0 {
			return metrics.Point{}, fmt.Errorf("poly: negative A %g", p.A)
		}
		return metrics.Point{
			Rate:       p.A,
			Latency:    3*p.A + p.B*p.B,
			P50:        p.A * p.B,
			P99:        p.A + 7,
			Throughput: p.B / 3,
		}, nil
	})
}

func clusterSpecs(t *testing.T, n int) []campaign.JobSpec {
	t.Helper()
	specs := make([]campaign.JobSpec, n)
	for i := range specs {
		payload, err := json.Marshal(clusterPayload{A: float64(i) / 7, B: float64(i%5) + 0.25})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = campaign.JobSpec{
			Key:     fmt.Sprintf("poly-%d", i),
			Kind:    clusterExecKind,
			Payload: payload,
		}
	}
	return specs
}

// serialResults is the ground truth: the same specs through the local
// backend, serially.
func serialResults(t *testing.T, specs []campaign.JobSpec) []metrics.Point {
	t.Helper()
	want, err := campaign.LocalBackend{}.Execute(specs, campaign.ExecOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// cluster spins up n worker daemons and returns their addresses plus a
// cleanup-registered handle to each.
func cluster(t *testing.T, n int, jobs int) ([]string, []*httptest.Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := range addrs {
		srv := NewServer(ServerOptions{Jobs: jobs})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		addrs[i] = ts.URL
		servers[i] = ts
	}
	return addrs, servers
}

func TestClusterMatchesSerial(t *testing.T) {
	specs := clusterSpecs(t, 53)
	want := serialResults(t, specs)
	addrs, _ := cluster(t, 3, 2)
	b, err := New(addrs, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Execute(specs, campaign.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("3-worker merge diverged from serial run")
	}
}

// flakyProxy fronts a healthy worker and injects seeded faults: some
// requests are rejected before execution (worker appeared dead), some are
// executed but their response dropped (connection cut after work).
type flakyProxy struct {
	backend  http.Handler
	rng      *rand.Rand
	rejectPp int // percent rejected up front
	dropPp   int // percent executed, response dropped
	dead     atomic.Bool
	kills    atomic.Int64
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, "killed", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/run" {
		roll := f.rng.Intn(100)
		if roll < f.rejectPp {
			f.kills.Add(1)
			http.Error(w, "injected pre-execution fault", http.StatusInternalServerError)
			return
		}
		if roll < f.rejectPp+f.dropPp {
			// Execute the batch (the daemon does the work), then cut the
			// connection so the coordinator never sees the response.
			rec := httptest.NewRecorder()
			f.backend.ServeHTTP(rec, r)
			f.kills.Add(1)
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "injected post-execution drop", http.StatusInternalServerError)
			return
		}
	}
	f.backend.ServeHTTP(w, r)
}

func TestClusterSurvivesSeededKillsAndDrops(t *testing.T) {
	specs := clusterSpecs(t, 61)
	want := serialResults(t, specs)

	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		var addrs []string
		var proxies []*flakyProxy
		for i := 0; i < 4; i++ {
			srv := NewServer(ServerOptions{Jobs: 2})
			proxy := &flakyProxy{
				backend:  srv,
				rng:      rand.New(rand.NewSource(rng.Int63())),
				rejectPp: 15,
				dropPp:   15,
			}
			ts := httptest.NewServer(proxy)
			t.Cleanup(func() { ts.Close(); srv.Close() })
			addrs = append(addrs, ts.URL)
			proxies = append(proxies, proxy)
		}
		// One worker dies permanently partway through: flip it dead after
		// its first successful request. Do it deterministically by marking
		// the first proxy dead up front for odd seeds.
		if seed%2 == 1 {
			proxies[0].dead.Store(true)
		}

		b, err := New(addrs, Options{BatchSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Execute(specs, campaign.ExecOptions{})
		if err != nil {
			// A draw where every worker happened to die is legal for the
			// backend but useless for the equivalence check; with 15%+15%
			// fault rates and 4 workers it should not happen on these seeds.
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merged results diverged from serial after injected faults", seed)
		}
	}
}

func TestClusterAllWorkersDead(t *testing.T) {
	specs := clusterSpecs(t, 9)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	b, err := New([]string{dead.URL, dead.URL}, Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Execute(specs, campaign.ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "unexecuted") {
		t.Fatalf("err = %v, want all-workers-failed", err)
	}
	if err := b.Check(); err == nil {
		t.Fatal("Check passed against a dead cluster")
	}
}

func TestClusterPropagatesLowestJobError(t *testing.T) {
	specs := clusterSpecs(t, 12)
	bad, _ := json.Marshal(clusterPayload{A: -1})
	specs[4].Payload = bad
	specs[9].Payload = bad
	addrs, _ := cluster(t, 2, 1)
	b, err := New(addrs, Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Execute(specs, campaign.ExecOptions{})
	var je *campaign.JobError
	if !errors.As(err, &je) || je.Index != 4 || !strings.Contains(err.Error(), "job 4") {
		t.Fatalf("err = %v, want lowest-index job error", err)
	}
}

func TestClusterCoordinatorStoreShortCircuits(t *testing.T) {
	specs := clusterSpecs(t, 10)
	want := serialResults(t, specs)
	store := campaign.NewMemoryLRU[metrics.Point](64)
	addrs, _ := cluster(t, 2, 2)
	b, err := New(addrs, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := b.Execute(specs, campaign.ExecOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatal("cold remote run diverged")
	}
	// Warm run: every spec satisfied from the coordinator store; no worker
	// is contacted, so even a dead cluster serves it.
	deadBackend, err := New([]string{"http://127.0.0.1:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := deadBackend.Execute(specs, campaign.ExecOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("store replay diverged")
	}
}

// TestClusterRerunFindsDaemonStores checks batch affinity: batch k goes
// first to worker k mod n, so rerunning the same specs without a
// coordinator store sends each batch back to the daemon whose store holds
// its points.
func TestClusterRerunFindsDaemonStores(t *testing.T) {
	var addrs []string
	var srvs []*Server
	for range 3 {
		srv := NewServer(ServerOptions{Jobs: 1, Store: campaign.NewMemoryLRU[metrics.Point](0)})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		addrs, srvs = append(addrs, ts.URL), append(srvs, srv)
	}
	b, err := New(addrs, Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := clusterSpecs(t, 6)
	for range 2 {
		if _, err := b.Execute(specs, campaign.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, srv := range srvs {
		if hits := srv.pool.Stats().StoreHits; hits != 2 {
			t.Errorf("daemon %d: %d store hits on the rerun, want its 2 points", i, hits)
		}
	}
}

func TestServerStatsAndHealth(t *testing.T) {
	addrs, servers := cluster(t, 1, 2)
	b, err := New(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := clusterSpecs(t, 6)
	if _, err := b.Execute(specs, campaign.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(servers[0].URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 6 || st.Requests == 0 {
		t.Fatalf("stats = %+v, want 6 jobs over >0 requests", st)
	}
	hresp, err := http.Get(servers[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Workers != 2 {
		t.Fatalf("health = %+v", h)
	}
	found := false
	for _, k := range h.Kinds {
		if k == clusterExecKind {
			found = true
		}
	}
	if !found {
		t.Fatalf("health kinds %v missing %s", h.Kinds, clusterExecKind)
	}
}

func TestNewValidatesAddresses(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := New([]string{" "}, Options{}); err == nil {
		t.Fatal("blank address accepted")
	}
	b, err := New([]string{"localhost:9", "http://example.com/"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.addrs[0] != "http://localhost:9" || b.addrs[1] != "http://example.com" {
		t.Fatalf("normalization: %v", b.addrs)
	}
}

// TestServerRejectsOversizedBody checks the /run body cap: a body past it
// is refused with 413 and counted as a bad payload, and the daemon keeps
// serving the next valid batch.
func TestServerRejectsOversizedBody(t *testing.T) {
	srv := NewServer(ServerOptions{Jobs: 1})
	srv.maxBody = 1 << 10
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	huge := `{"jobs":[` + strings.Repeat(" ", 4<<10) + `]}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if got := srv.badPayload.Load(); got != 1 {
		t.Fatalf("bad payloads = %d after an oversized body, want 1", got)
	}

	b, err := New([]string{ts.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := clusterSpecs(t, 3)
	got, err := b.Execute(specs, campaign.ExecOptions{})
	if err != nil {
		t.Fatalf("valid batch after an oversized one: %v", err)
	}
	if want := serialResults(t, specs); !reflect.DeepEqual(got, want) {
		t.Fatalf("valid batch after an oversized one diverged:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestServerSkipsAfterFailure checks a daemon batch with a failing job:
// the pool starts no later job, the skipped slots report a failure rather
// than a zero point, and /stats counts only the jobs that ran.
func TestServerSkipsAfterFailure(t *testing.T) {
	srv := NewServer(ServerOptions{Jobs: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	specs := clusterSpecs(t, 4)
	bad, _ := json.Marshal(clusterPayload{A: -1})
	specs[1].Payload = bad
	body, err := json.Marshal(runRequest{Jobs: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var run runResponse
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	want := serialResults(t, specs[:1])
	if r := run.Results; len(r) != 4 || r[0].Err != "" || !reflect.DeepEqual(r[0].Point, want[0]) ||
		!strings.Contains(r[1].Err, "negative A") || !strings.Contains(r[2].Err, "not run") || !strings.Contains(r[3].Err, "not run") {
		t.Fatalf("results = %+v", run.Results)
	}
	if st := srv.pool.Stats(); st.Jobs != 2 || st.JobErrors != 1 {
		t.Fatalf("stats = %+v, want 2 jobs with 1 error", st)
	}
}

// TestClusterLeavesLastBatchHome checks that an idle worker never takes a
// live worker's last queued batch: with worker 1's daemon slow, worker 0
// runs its own batches (0, 2) and may take batch 1, but batch 3 waits for
// worker 1, so a rerun finds its points in daemon 1's store.
func TestClusterLeavesLastBatchHome(t *testing.T) {
	var addrs []string
	var stores []*campaign.MemoryLRU[metrics.Point]
	for i := range 2 {
		store := campaign.NewMemoryLRU[metrics.Point](0)
		srv := NewServer(ServerOptions{Jobs: 1, Store: store})
		var h http.Handler = srv
		if i == 1 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(30 * time.Millisecond)
				srv.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		addrs, stores = append(addrs, ts.URL), append(stores, store)
	}
	b, err := New(addrs, Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := clusterSpecs(t, 8)
	if _, err := b.Execute(specs, campaign.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs[6:] {
		if _, ok := stores[1].Get(spec.Key); !ok {
			t.Fatalf("batch 3 (%s) did not run on its home daemon", spec.Key)
		}
	}
}
