// Command sldfd is the sweep worker daemon: it executes campaign job specs
// shipped by a coordinator (sldfsweep -remote / sldffigures -remote /
// sldfcollective -remote) over the HTTP/JSON protocol in
// internal/campaign/remote. Registered job kinds: core/point@v1 (sweep
// load points) and collective/makespan@v1 (collective executions).
//
//	sldfd -listen :8437 -jobs 8                 # 8 concurrent measurements
//	sldfd -listen :8437 -cache /var/sldf/points # with a durable point store
//
// Endpoints: POST /run (job batches), GET /healthz (liveness), GET /stats
// (execution counters). A worker keeps built networks warm between
// batches (reset between points — bitwise identical to fresh builds) and,
// with -cache, fronts the disk tier with an in-memory LRU so replayed
// points never re-simulate. Failure semantics live on the coordinator:
// if this process dies mid-run, its outstanding batches are re-sharded
// onto the surviving workers and the merged sweep is unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/metrics"

	// Register the core point executor so shipped specs can run here.
	_ "sldf/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2) // the flag package's historical usage-error status
		}
		fmt.Fprintf(os.Stderr, "sldfd: %v\n", err)
		os.Exit(1)
	}
}

// errUsage signals main that the flag package already reported the problem
// (usage text included) on the error writer.
var errUsage = errors.New("usage error")

// run parses flags and serves until the context (or a termination signal)
// stops it. ready, when non-nil, receives the bound address once the
// listener is up — tests use it to learn the ephemeral port.
func run(args []string, errw io.Writer, ready func(addr string, stop context.CancelFunc)) error {
	fs := flag.NewFlagSet("sldfd", flag.ContinueOnError)
	fs.SetOutput(errw)
	listen := fs.String("listen", ":8437", "address to serve the worker protocol on")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent measurements (persistent worker goroutines)")
	cacheDir := fs.String("cache", "", "directory for the durable point store (empty = memory only)")
	mem := fs.Int("mem", 1024, "in-memory point store capacity (0 = unbounded)")
	sysCache := fs.Int("syscache", remote.DefaultWorkerState, "built systems each worker keeps warm (LRU-evicted; large systems are memory-heavy)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is success, not failure
		}
		return errUsage // the flag package already printed error + usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "unexpected arguments: %v\n", fs.Args())
		return errUsage
	}

	// The store is tiered: memory LRU in front, disk behind when -cache is
	// set. A memory-only daemon still serves replays within its lifetime.
	var store campaign.PointStore
	hot := campaign.NewMemoryLRU[metrics.Point](*mem)
	if *cacheDir != "" {
		disk, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		store = campaign.NewTiered[metrics.Point](hot, disk)
	} else {
		store = hot
	}

	worker := remote.NewServer(remote.ServerOptions{Jobs: *jobs, Store: store, WorkerState: *sysCache})
	defer worker.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// A client that stalls mid-header must not pin a connection forever;
	// there is deliberately no write timeout, since a long batch's reply
	// is only written once every job has finished.
	srv := &http.Server{Handler: worker, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if ready != nil {
		ready(ln.Addr().String(), stop)
	}
	fmt.Fprintf(errw, "sldfd: serving on %s (%d workers, store: %s)\n",
		ln.Addr(), *jobs, storeDesc(*cacheDir, *mem))

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(errw, "sldfd: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	<-serveErr // http.ErrServerClosed after a clean Shutdown
	return nil
}

// storeDesc names the store tiering for the startup log line.
func storeDesc(cacheDir string, mem int) string {
	if cacheDir != "" {
		return fmt.Sprintf("memory(%d) over disk(%s)", mem, cacheDir)
	}
	return fmt.Sprintf("memory(%d)", mem)
}
