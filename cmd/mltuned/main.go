// Command mltuned is the long-running auto-tuning daemon: it serves
// trained performance models over HTTP/JSON and runs tuning jobs on a
// bounded asynchronous queue.
//
// Usage:
//
//	mltuned [-addr :8372] [-rpc-addr :9372] [-models DIR] [-samples DIR]
//	        [-workers N] [-train-workers N] [-backlog N] [-drain-timeout D]
//	        [-max-inflight N] [-pprof] [-storage localfs|memory]
//	        [-role all|serve|train] [-upstream URL] [-sync-interval D]
//	        [-engine float64|int16|int8] [-shard i/n] [-peers URL,...]
//	        [-rpc-peers ADDR,...]
//
// On startup the registry directory is scanned for saved models
// (benchmark@device.mlt files in the core.Model.Save format — the same
// artifacts cmd/mltune -save-model writes); each loads lazily on its
// first predict/top-M query. The read path is batched: GET /v1/predict
// answers single configurations, POST /v1/predict takes a JSON batch of
// space indices or parameter maps, and both run through pooled
// per-model scratches; /v1/topm responses are cached per (model, M)
// until a tuning or training job or reload replaces the model.
//
// The write path is the server-side training pipeline: POST /v1/samples
// ingests measurements into the per-benchmark×device sample store
// (-samples, default <models>/samples; completed tuning jobs feed it
// too), and POST /v1/train runs an async training job over the stored
// samples — bounded by the -train-workers budget — atomically swapping
// the retrained model into the registry without a restart. Training
// with device "*" pools the store across a benchmark's devices into a
// portable <bench>@* model; predict/top-M requests for devices without
// a model of their own fall back to it, binding the requesting device's
// descriptor (catalog name or inline descriptor JSON).
//
// -engine selects the read path's inference engine. The default float64
// engine is the exact reference; -engine int16 serves batch predictions
// through the quantised fixed-point engine, and -engine int8 through
// the narrower 8-bit engine with packed weights (each within its
// proven error bound of the reference — see the README's Engines
// section). The engine does not touch top-M: every sweep screens
// through the int16 sweeper and ranks exact reference scores, so top-M
// answers are identical under all three engines. Models a
// quantisation proof does not cover fall back to float64 per
// model, counted in mltuned_engine_fallbacks_total; a binding to
// device features outside the quantisers' input domain is served by
// float64 too. /v1/stats and /v1/models report the engine in effect.
//
// The daemon splits into planes for fleet deployments. -role train (or
// the default all) is the train plane: it owns the writable registry.
// -role serve is a read-only replica: mutating endpoints answer 405
// with the machine-readable kind "read_only", and with -upstream set
// the replica polls the train plane's GET /v1/models?since=<generation>
// delta every -sync-interval, pulling changed model artifacts and
// installing them through the same atomic slot swap a local training
// job uses — a zero-downtime rollout. /readyz on
// a replica answers 503 until the first successful sync; replication
// state shows in /v1/stats and the mltuned_replication_* metrics.
// -storage memory runs the registry and sample store in memory — the
// natural fit for an ephemeral replica, whose state re-pulls from the
// upstream on restart anyway.
//
// -rpc-addr additionally serves the hot read path (predict,
// predict-batch, top-M, models-delta) over a compact length-prefixed
// binary protocol on a dedicated listener, skipping HTTP and JSON
// entirely; see API.md for the wire format and internal/service/rpcclient
// for the Go client. The RPC plane shares the API core, the error
// taxonomy, and the -max-inflight shedding with the HTTP plane.
//
// -shard i/n runs the instance as one shard of an n-way fleet: a
// consistent-hash ring over benchmark@device keys decides which
// instance owns (serves and replicates) each model, portable
// benchmark@* models belong to every shard, and requests for keys
// another shard owns answer kind "not_owner" (HTTP 421) naming the
// owner — including its addresses when -peers (HTTP base URLs, in
// shard order) and -rpc-peers (RPC host:ports) are configured, so
// clients follow the redirect without knowing the topology. A sharded
// replica with -upstream polls with ?shard=i/n and syncs only its own
// slice of the fleet's models.
//
// The daemon is observable in production: GET /metrics exports every
// internal counter, gauge and latency histogram in the Prometheus text
// exposition format, GET /v1/stats returns the same snapshot as JSON,
// and GET /readyz tells load balancers when to stop routing here
// (draining, or job backlog full). The read path sheds load past
// -max-inflight concurrent predict/top-M requests with 429 plus a
// Retry-After hint instead of queueing unboundedly; -pprof exposes the
// net/http/pprof profiling handlers under /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops,
// queued jobs are canceled, and running jobs get -drain-timeout to
// finish before their contexts are cancelled.
//
// See the README's "mltuned" section for the endpoint reference and an
// example curl session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/storage"
)

func main() {
	var (
		addr         = flag.String("addr", ":8372", "HTTP listen address")
		models       = flag.String("models", "models", "model registry directory")
		samples      = flag.String("samples", "", "sample store directory (default <models>/samples)")
		workers      = flag.Int("workers", 0, "tuning worker pool size (0 = GOMAXPROCS)")
		trainWorkers = flag.Int("train-workers", 0, "per-job ensemble training parallelism budget (0 = GOMAXPROCS)")
		backlog      = flag.Int("backlog", 64, "job queue capacity beyond the running jobs")
		drain        = flag.Duration("drain-timeout", 30*time.Second, "how long running jobs may finish after SIGTERM")
		maxInflight  = flag.Int("max-inflight", 256, "concurrent predict/top-M requests before shedding with 429 (0 = unlimited)")
		pprof        = flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
		storageKind  = flag.String("storage", "localfs", "storage backend for the registry and sample store: localfs or memory")
		roleFlag     = flag.String("role", "all", "plane to run: all (single node), train (writable source), serve (read-only replica)")
		upstream     = flag.String("upstream", "", "train-plane base URL a serve replica pulls models from (requires -role serve)")
		syncEvery    = flag.Duration("sync-interval", 5*time.Second, "replication poll interval when -upstream is set")
		engine       = flag.String("engine", "", "read-path inference engine: float64 (exact reference, the default), int16 (quantised fixed point) or int8 (packed 8-bit weights); top-M always screens through int16")
		rpcAddr      = flag.String("rpc-addr", "", "binary RPC listen address for the hot read path (empty = HTTP only)")
		shardSpec    = flag.String("shard", "", "serve as shard i of n over the benchmark@device keyspace (format i/n; empty = own every key)")
		peers        = flag.String("peers", "", "comma-separated shard-ordered HTTP base URLs of the fleet (fills not_owner redirects)")
		rpcPeers     = flag.String("rpc-peers", "", "comma-separated shard-ordered RPC addresses of the fleet (fills not_owner redirects)")
	)
	flag.Parse()

	role, err := service.ParseRole(*roleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mltuned:", err)
		os.Exit(1)
	}

	var reg *service.Registry
	switch *storageKind {
	case "localfs":
		reg, err = service.OpenRegistry(*models)
	case "memory":
		reg, err = service.NewRegistry(storage.NewMemory())
	default:
		err = fmt.Errorf("unknown -storage %q (want localfs or memory)", *storageKind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mltuned:", err)
		os.Exit(1)
	}
	opts := []service.Option{service.WithRole(role)}
	if *upstream != "" {
		opts = append(opts, service.WithUpstream(*upstream, *syncEvery))
	}
	if *samples != "" {
		if *storageKind == "memory" {
			fmt.Fprintln(os.Stderr, "mltuned: -samples is a directory flag; it does not apply with -storage memory")
			os.Exit(1)
		}
		st, err := service.OpenSampleStore(*samples)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mltuned:", err)
			os.Exit(1)
		}
		opts = append(opts, service.WithSampleStore(st))
	}
	if *trainWorkers > 0 {
		opts = append(opts, service.WithTrainWorkers(*trainWorkers))
	}
	if *maxInflight > 0 {
		opts = append(opts, service.WithMaxInflight(*maxInflight))
	}
	if *pprof {
		opts = append(opts, service.WithPprof())
	}
	if *engine != "" {
		opts = append(opts, service.WithEngine(*engine))
	}
	if *shardSpec != "" {
		index, count, err := service.ParseShard(*shardSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mltuned:", err)
			os.Exit(1)
		}
		opts = append(opts, service.WithShard(index, count))
	}
	if *peers != "" || *rpcPeers != "" {
		opts = append(opts, service.WithShardPeers(splitPeers(*peers), splitPeers(*rpcPeers)))
	}
	srv, err := service.New(reg, *workers, *backlog, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mltuned:", err)
		os.Exit(1)
	}
	regName := reg.Dir()
	if regName == "" {
		regName = reg.Backend().Name()
	}
	log.Printf("mltuned: serving on %s as role %s, engine %s (registry %s [%s], %d models)",
		*addr, srv.Role(), srv.Engine(), regName, reg.Backend().Name(), reg.Len())

	httpSrv := newHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *upstream != "" {
		log.Printf("mltuned: replicating from %s every %s", *upstream, *syncEvery)
		go srv.Replicate(ctx)
	}

	errc := make(chan error, 2)
	go func() { errc <- httpSrv.ListenAndServe() }()

	if *rpcAddr != "" {
		lis, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mltuned:", err)
			os.Exit(1)
		}
		log.Printf("mltuned: rpc plane on %s", lis.Addr())
		go func() {
			// ServeRPC returns nil on ctx cancellation; only a dead
			// listener reaches errc.
			if err := srv.ServeRPC(ctx, lis); err != nil {
				errc <- fmt.Errorf("rpc: %w", err)
			}
		}()
	}

	select {
	case err := <-errc:
		// The listener died on its own (e.g. the port is taken).
		fmt.Fprintln(os.Stderr, "mltuned:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Printf("mltuned: shutting down, draining jobs for up to %s", *drain)

	// The HTTP listener and the job queue drain concurrently, each with
	// its own -drain-timeout budget: a stalled client connection must not
	// eat into the grace period promised to running tuning jobs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		httpCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(httpCtx); err != nil {
			log.Printf("mltuned: http shutdown: %v", err)
		}
	}()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("mltuned: %v: running jobs were canceled", err)
	}
	wg.Wait()
	log.Printf("mltuned: bye")
}

// The HTTP plane's connection timeouts. Without them a client that
// opens a connection and never finishes its request, or parks an idle
// keep-alive connection, holds a connection and its goroutine for as
// long as it likes.
const (
	// readHeaderTimeout bounds the time from the start of a request to
	// the end of its headers.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout closes a keep-alive connection that sends no next
	// request.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server for handler h on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// splitPeers parses a comma-separated, shard-ordered address list;
// empty entries are dropped.
func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
