package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/core"
	"sldf/internal/metrics"
)

// campaignWork runs registry experiments through the distributed pipeline:
// a remote coordinator over loopback worker daemons in this process. One
// pass is a cold run on fresh daemons and a fresh store, then replays of
// the same run from the coordinator's disk tier and from the daemons'
// stores.
type campaignWork struct {
	// plans are resolved experiment plans, run one RunExperiment call each
	// and verified as each returns — when sldffigures would write them out.
	plans   []core.ExperimentPlan
	daemons int
	replays int // per replay kind
}

// registryPlans resolves registered experiments at a scale and reseeds
// every configuration. Each job simulates with one worker: the two daemons
// already run one job each, and a second worker per job would only add
// barrier wake-ups between the cores (results are identical for any worker
// count).
func registryPlans(names []string, scale core.Scale, seed uint64) ([]core.ExperimentPlan, error) {
	var out []core.ExperimentPlan
	for _, name := range names {
		spec, ok := core.LookupExperiment(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		p := spec.Plan(scale)
		if len(p.Energy) > 0 || len(p.Resilience) > 0 {
			return nil, fmt.Errorf("experiment %q: energy and resilience panels are not campaign jobs", name)
		}
		for _, f := range p.Figures {
			for i := range f.Series {
				f.Series[i].Cfg.Seed, f.Series[i].Cfg.Workers = seed, 1
			}
		}
		for _, f := range p.Collectives {
			for i := range f.Cases {
				f.Cases[i].Cfg.Seed, f.Cases[i].Cfg.Workers = seed, 1
			}
		}
		for _, f := range p.Churn {
			for i := range f.Cases {
				f.Cases[i].Cfg.Seed, f.Cases[i].Cfg.Workers = seed, 1
			}
		}
		out = append(out, p)
	}
	return out, nil
}

func (c campaignWork) setup(r *runner) (time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(r, c.daemons)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	f.close()
	return d, nil
}

func (c campaignWork) pass(r *runner) (wall, setup time.Duration, err error) {
	cold := r.tr.begin(r.passSpan, spanCold)
	r.tr.setCur(cold)
	f, err := startFleet(r, c.daemons)
	setup = time.Since(r.passStart)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	dir, err := os.MkdirTemp(r.tmp, "campaign-")
	if err != nil {
		return 0, 0, fmt.Errorf("campaign store: %w", err)
	}
	defer os.RemoveAll(dir)
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		return 0, 0, err
	}
	coordStore := func() campaign.PointStore {
		return traceStore(r.tr, campaign.NewTiered[metrics.Point](campaign.NewMemoryLRU[metrics.Point](0), cache),
			spanStoreGet, spanStorePut)
	}

	if err := c.runAll(r, cold, f.backend, coordStore()); err != nil {
		return 0, 0, err
	}
	wall = r.last
	r.tr.end(cold)
	// Disk replays: a fresh memory tier each time, so every point is read
	// back from the cache directory.
	for range c.replays {
		id := r.tr.begin(r.passSpan, spanDiskReplay)
		if err := c.runAll(r, id, f.backend, coordStore()); err != nil {
			return 0, 0, err
		}
		r.tr.end(id)
	}
	// Daemon replays: no coordinator store, so every job travels to a
	// daemon, which answers from its own store when it ran the job before.
	for range c.replays {
		id := r.tr.begin(r.passSpan, spanDaemonReplay)
		if err := c.runAll(r, id, f.backend, nil); err != nil {
			return 0, 0, err
		}
		r.tr.end(id)
	}
	if r.tr != nil {
		hits, err := f.storeHits()
		if err != nil {
			return 0, 0, err
		}
		r.tr.count(r.passSpan, "daemon_store_hits", float64(hits))
	}
	return wall, setup, nil
}

// runAll runs every plan once and verifies its output as it returns.
func (c campaignWork) runAll(r *runner, parent int, backend campaign.Backend, store campaign.PointStore) error {
	for _, plan := range c.plans {
		id := r.tr.begin(parent, spanExperiment)
		r.tr.setCur(id)
		res, err := core.RunExperiment(core.ExperimentSpec{
			Name: "bench",
			Plan: func(core.Scale) core.ExperimentPlan { return plan },
		}, core.ScaleQuick, core.RunOptions{Backend: backend, Store: store})
		r.tr.setCur(parent)
		r.tr.end(id)
		if err != nil {
			return err
		}
		for i, fig := range res.Figures {
			for j, s := range fig.Series {
				spec := plan.Figures[i].Series[j]
				for _, p := range s.Points {
					r.point(pointLine(fig.Name+"/"+s.Label, spec.Pattern, p), checkJobPoint(p, spec.Sim))
				}
			}
		}
		for _, fig := range res.Collectives {
			for _, row := range fig.Rows {
				r.point(collectiveLine(fig.Name, row), checkCollective(row))
			}
		}
		for _, fig := range res.Churn {
			for _, row := range fig.Rows {
				r.point(churnLine(fig.Name, row), checkChurn(row))
			}
		}
	}
	r.endOutput()
	return nil
}

func joinCycles(cs []int64) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprint(c)
	}
	return strings.Join(parts, ";")
}

// collectiveLine is the canonical golden line of one collective makespan.
func collectiveLine(fig string, r metrics.CollectiveRow) string {
	return fmt.Sprintf("%s/%s,%s,%d,%d,%d,%.17g,%s", fig, r.System, r.Schedule,
		r.Steps, r.Cycles, r.Packets, r.Efficiency, joinCycles(r.StepCycles))
}

// churnLine is the canonical golden line of one mid-collective death case.
func churnLine(fig string, r metrics.ChurnRow) string {
	return fmt.Sprintf("%s/%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s", fig, r.System, r.Schedule,
		r.KillChip, r.KillStep, r.Steps, r.BaselineCycles, r.Cycles, r.CostCycles,
		r.PreCycles, r.PostCycles, r.Packets, r.Dropped, r.Retried, joinCycles(r.StepCycles))
}

// checkJobPoint is checkPoint for a campaign point, which arrives without
// its raw statistics: accepted throughput may exceed offered only by four
// standard deviations of one chip's offered packet count.
func checkJobPoint(p metrics.Point, sp core.SimParams) error {
	if math.IsNaN(p.Latency) || p.Latency <= 0 || p.Throughput < 0 {
		return fmt.Errorf("degenerate point: latency %g, throughput %g", p.Latency, p.Throughput)
	}
	if p.Dropped < 0 || p.Retried < 0 || p.Refused < 0 {
		return errors.New("negative churn counters")
	}
	if pkts := p.Rate * float64(sp.Measure) / float64(sp.PacketSize); pkts > 0 &&
		p.Throughput > p.Rate*(1+4/math.Sqrt(pkts)) {
		return fmt.Errorf("accepted %.6g exceeds offered %.6g", p.Throughput, p.Rate)
	}
	return nil
}

func checkCollective(r metrics.CollectiveRow) error {
	if r.Cycles <= 0 || r.Packets <= 0 || r.Steps != len(r.StepCycles) || r.Steps == 0 {
		return fmt.Errorf("degenerate collective: %d cycles, %d packets, %d steps", r.Cycles, r.Packets, r.Steps)
	}
	return nil
}

func checkChurn(r metrics.ChurnRow) error {
	if r.BaselineCycles <= 0 || r.Packets <= 0 || r.CostCycles != r.Cycles-r.BaselineCycles {
		return fmt.Errorf("inconsistent churn case: baseline %d, cycles %d, cost %d, packets %d",
			r.BaselineCycles, r.Cycles, r.CostCycles, r.Packets)
	}
	return nil
}

// fleet is a set of loopback worker daemons and the coordinator over them.
type fleet struct {
	daemons   []*daemon
	transport *http.Transport
	backend   *remote.Backend
}

// daemon is one worker: the protocol server behind its own HTTP listener.
type daemon struct {
	addr   string
	worker *remote.Server
	http   *http.Server
	served chan struct{} // closed when Serve has returned
}

// startFleet starts n daemons (one job each, in-memory store) and a
// coordinator over them, and waits until every daemon answers /healthz.
func startFleet(r *runner, n int) (*fleet, error) {
	f := &fleet{transport: http.DefaultTransport.(*http.Transport).Clone()}
	id := r.tr.beginCur(spanDaemonStart)
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		d := &daemon{
			addr: ln.Addr().String(),
			worker: remote.NewServer(remote.ServerOptions{Jobs: 1,
				Store: traceStore(r.tr, campaign.NewMemoryLRU[metrics.Point](0), spanDaemonGet, spanDaemonPut)}),
			served: make(chan struct{}),
		}
		d.http = &http.Server{Handler: d.worker}
		go func() {
			defer close(d.served)
			_ = d.http.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
		f.daemons = append(f.daemons, d)
	}
	r.tr.end(id)

	addrs := make([]string, n)
	for i, d := range f.daemons {
		addrs[i] = d.addr
	}
	var rt http.RoundTripper = f.transport
	if r.tr != nil {
		rt = tracedTransport{base: f.transport, tr: r.tr}
	}
	b, err := remote.New(addrs, remote.Options{Client: &http.Client{Transport: rt}})
	if err == nil {
		id = r.tr.beginCur(spanCheck)
		err = b.Check()
		r.tr.end(id)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.backend = b
	return f, nil
}

// close stops every daemon, waits for its server goroutine and worker pool
// to exit, and drops the coordinator's idle connections.
func (f *fleet) close() {
	for _, d := range f.daemons {
		_ = d.http.Close() // the listener's close error is of no use at teardown
		<-d.served
		d.worker.Close()
	}
	f.transport.CloseIdleConnections()
}

// storeHits sums the daemons' store hits from their /stats endpoints.
func (f *fleet) storeHits() (int64, error) {
	client := &http.Client{Transport: f.transport}
	var total int64
	for _, d := range f.daemons {
		resp, err := client.Get("http://" + d.addr + "/stats")
		if err != nil {
			return 0, fmt.Errorf("daemon stats: %w", err)
		}
		var st struct {
			StoreHits int64 `json:"store_hits"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("daemon stats: %w", err)
		}
		total += st.StoreHits
	}
	return total, nil
}

// tracedStoreT times every Get and Put of a point store as a span.
type tracedStoreT struct {
	inner    campaign.PointStore
	tr       *tracer
	get, put string
}

// traceStore wraps s when the pass is traced and returns it unchanged
// otherwise.
func traceStore(tr *tracer, s campaign.PointStore, get, put string) campaign.PointStore {
	if tr == nil {
		return s
	}
	return tracedStoreT{inner: s, tr: tr, get: get, put: put}
}

func (s tracedStoreT) Get(key string) (metrics.Point, bool) {
	id := s.tr.beginCur(s.get)
	p, ok := s.inner.Get(key)
	s.tr.end(id)
	if ok {
		s.tr.count(id, "hit", 1)
	}
	return p, ok
}

func (s tracedStoreT) Put(key string, p metrics.Point) error {
	id := s.tr.beginCur(s.put)
	err := s.inner.Put(key, p)
	s.tr.end(id)
	if err != nil {
		s.tr.count(id, "error", 1)
	}
	return err
}

// tracedTransport records each coordinator request as a span lasting until
// its response body is closed, with request and response sizes.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.beginCur(spanHTTP)
	if req.ContentLength > 0 {
		t.tr.count(id, "req_b", float64(req.ContentLength))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.count(id, "error", 1)
		t.tr.end(id)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.tr.count(id, "error", 1)
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, tr: t.tr, id: id}
	return resp, nil
}

// countedBody counts response bytes and closes the request's span once.
type countedBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	n    int64
	once sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.tr.count(b.id, "resp_b", float64(b.n))
		b.tr.end(b.id)
	})
	return err
}
