// Command roboptd serves the optimizer over HTTP: a cross-platform system
// POSTs its logical plan as JSON to /optimize and receives the chosen
// per-operator platform assignment, the conversion operators, the model's
// runtime prediction and the enumeration statistics.
//
//	roboptd -addr :8080 -model model.json
//	curl -XPOST -d @query.json 'localhost:8080/optimize?simulate=1'
//
// Without -model, a model is trained on startup (one-time, prints progress).
// The flags are the settings a deployment varies; the rest is fixed: a 30 s
// request deadline (?deadline_ms= overrides it), GOMAXPROCS enumeration
// workers, a 10 s drain on SIGINT/SIGTERM, and the limits below.
//
// # Model lifecycle
//
// The served model is a versioned artifact behind an atomically hot-swappable
// provider. With -model-dir, artifacts are persisted to (and loadable from) a
// file-backed store, GET /modelz reports which version serves and POST
// /modelz/promote changes it. Each /optimize?simulate=1 response feeds its
// (plan vector, observed runtime) pair into a bounded feedback buffer
// (-feedback-cap), which GET /modelz/feedback exports as a training CSV.
// Retraining is offline: merge the export into TDGen data (tdgen -merge),
// train and save an artifact (robopt -train -save-model), and promote it
// into the store.
//
// # Plan cache
//
// Repeated structurally identical plans are served from a fingerprint-keyed
// plan cache (4096 entries, 64 MiB accounted, 10 min time-to-live) instead of
// re-running the enumeration; concurrent identical requests collapse into one
// run. Entries are keyed by model version, and publishing a new one
// flash-invalidates plans scored by the outgoing model. Responses carry an
// X-Cache header; ?nocache=1 bypasses the cache per request; GET /cachez
// and POST /cachez/purge administer it.
//
// With -peer-fill (requires -model-dir), replicas sharing the store form a
// fleet-shared cache tier: a local miss first consults up to two live peers
// over GET /peercache (the second after a 25 ms head start, each probe
// bounded at 150 ms, circuit breakers, memoized negatives) and installs a
// peer's entry instead of re-enumerating; responses served this way carry
// X-Cache: peer. A miss that stays cold is enumerated locally, so a key cold
// fleet-wide is enumerated at most once per replica; ?nopeer=1 bypasses the
// tier per request.
//
// # Running a replica fleet
//
// N roboptd processes pointed at one shared -model-dir behave as a
// converging fleet: each replica compares the store's ACTIVE marker with the
// version it serves every 2 s (registry.DefaultWatchInterval) and hot-swaps
// in what the marker names, whoever moved it — another replica or an
// operator; a sync that fails is retried on the next tick. Promote once,
// converge everywhere within one tick, no restarts. GET /healthz is the
// liveness probe and GET /readyz the readiness probe (503 while draining or
// without a servable artifact), so a load balancer can gate traffic per
// replica.
//
// # Admission control
//
// The optimize endpoints sit behind a bounded admission layer: at most
// 2× GOMAXPROCS request units optimize at once, at most 4× that many wait
// for a slot (honoring their deadlines), and everything beyond that is
// refused with 429 + Retry-After. Requests that queue behind a backlog past
// half the queue are served the degraded beam (the plan is marked degraded
// with reason "load-shed") so overload drains instead of compounding. POST
// /optimize/batch admits a whole plan slice of at most 64 members as one
// unit, deduplicates members by canonical fingerprint, and fans the
// remainder across the enumeration pool. Request bodies are capped at 8 MiB.
//
// # Observability
//
// Each request records a span trace keyed by its request ID — or by the
// caller's W3C trace ID when the request carries a traceparent header, whose
// sampled flag forces retention like ?trace=1. Notable traces (slower than
// 1 s, degraded, errored, or forced) are always retained for GET /tracez,
// unremarkable ones at a 10 % rate, in a ring of the 128 most recent.
// /metricz serves Prometheus text exposition with ?format=prometheus
// (labeled serving series carry exemplar trace IDs resolvable via /tracez),
// -pprof mounts net/http/pprof under /debug/pprof/, and
// -log-level/-log-format control the structured (log/slog) request and
// lifecycle logs.
//
// Every request feeds a rolling multi-window SLO tracker (objective: 99 % of
// requests within 500 ms): the slo_* gauges on /metricz report each window's
// error-budget burn rate and the combined breach verdict.
//
// Replicas sharing a -model-dir also register themselves in it
// (-replica-id/-advertise), heartbeating every 5 s: the obsctl command
// scrapes every registered replica and merges the fleet view (readiness,
// model-version convergence, cache hit rate, shed rate, worst SLO burn).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/peercache"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

// The settings no deployment varies, at what their flags defaulted to and
// what bench/serving.go's replicas run with: the default request deadline,
// with headroom to still write a degraded or timed-out response; the
// probability of retaining an unremarkable trace, and the latency from which
// a trace is always retained; the latency objective and the share of
// requests that must meet it; the plan-cache entry lifetime; the drain after
// SIGINT/SIGTERM; the period at which a -model-dir replica renews its fleet
// registration. The cache's capacity, the trace ring and the admission
// limits are their packages' zero-value defaults, and the store follower
// ticks at registry.DefaultWatchInterval.
const (
	deadline      = 30 * time.Second
	writeTimeout  = deadline + 30*time.Second
	traceSample   = 0.1
	traceSlow     = time.Second
	sloLatencyMs  = 500
	sloTarget     = 0.99
	cacheTTL      = 10 * time.Minute
	shutdownGrace = 10 * time.Second
	heartbeat     = 5 * time.Second
)

// config is roboptd's command line: the settings a deployment varies.
type config struct {
	addr, advertise, replicaID string
	model, modelDir            string
	logLevel, logFormat        string
	platforms                  int
	feedbackCap                int
	budget                     core.Budget
	quick, pprof, peerFill     bool
	version                    bool
}

// parseConfig parses args, the command line without the program name, and
// checks the settings. A bad flag or setting prints the error and the usage
// to out; -h prints the usage and returns flag.ErrHelp.
func parseConfig(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("roboptd", flag.ContinueOnError)
	fs.SetOutput(out)
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.model, "model", "", "load a saved model artifact (otherwise use -model-dir's active version, or train on startup)")
	fs.StringVar(&c.modelDir, "model-dir", "", "shared artifact store: /modelz/promote writes it, the store follower converges on its ACTIVE version, replicas register in it")
	fs.IntVar(&c.platforms, "platforms", platform.NumPlatforms, "number of platforms (2-5)")
	fs.BoolVar(&c.quick, "quick", false, "train a small model on startup (fast, less faithful)")
	fs.IntVar(&c.budget.MaxVectors, "budget-vectors", 0, "degrade enumeration after this many plan vectors (0 = unlimited)")
	fs.IntVar(&c.budget.MaxModelCalls, "budget-model-calls", 0, "degrade enumeration after this many cost-oracle feature rows (0 = unlimited)")
	fs.IntVar(&c.feedbackCap, "feedback-cap", registry.DefaultFeedbackCap, "execution-feedback buffer capacity")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.StringVar(&c.logFormat, "log-format", "text", "log format: text or json")
	fs.BoolVar(&c.peerFill, "peer-fill", false, "on a local plan-cache miss, consult fleet peers over /peercache before enumerating (needs -model-dir)")
	fs.StringVar(&c.replicaID, "replica-id", "", "fleet identity of this replica (default host:pid)")
	fs.StringVar(&c.advertise, "advertise", "", "address other replicas scrape this one at (default -addr, with the hostname filled in)")
	fs.BoolVar(&c.version, "version", false, "print build information and exit")
	err := fs.Parse(args)
	if err == nil {
		if err = c.check(); err != nil {
			fmt.Fprintln(out, err)
			fs.Usage()
		}
	}
	return c, err
}

// check refuses the settings roboptd cannot run with.
func (c *config) check() error {
	if err := platform.CheckCount(c.platforms); err != nil {
		return fmt.Errorf("-platforms: %w", err)
	}
	if _, err := obs.NewLogger(io.Discard, c.logLevel, c.logFormat, ""); err != nil {
		return err
	}
	if c.feedbackCap < 1 {
		return fmt.Errorf("-feedback-cap %d: the buffer needs room for at least one sample", c.feedbackCap)
	}
	if c.budget.MaxVectors < 0 {
		return fmt.Errorf("-budget-vectors %d: must not be negative (0 = unlimited)", c.budget.MaxVectors)
	}
	if c.budget.MaxModelCalls < 0 {
		return fmt.Errorf("-budget-model-calls %d: must not be negative (0 = unlimited)", c.budget.MaxModelCalls)
	}
	if c.peerFill && c.modelDir == "" {
		return errors.New("-peer-fill needs -model-dir (peers are discovered through the shared store)")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("roboptd: ")
	cfg, err := parseConfig(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if cfg.version {
		fmt.Println(buildinfo.String("roboptd"))
		fmt.Printf("workers: %d (runtime.GOMAXPROCS)\n", core.ResolveWorkers(0))
		return
	}

	logger, err := obs.NewLogger(os.Stderr, cfg.logLevel, cfg.logFormat, "roboptd")
	if err != nil {
		log.Fatal(err)
	}

	plats := platform.Subset(cfg.platforms)
	avail := platform.DefaultAvailability().Restrict(plats)
	schema, err := core.NewSchema(plats)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(plats))
	for i, p := range plats {
		names[i] = p.String()
	}

	var store *registry.Store
	if cfg.modelDir != "" {
		if store, err = registry.OpenStore(cfg.modelDir); err != nil {
			log.Fatal(err)
		}
	}

	recipe := tdgen.Recipe{Platforms: plats, Avail: avail, Cluster: simulator.Default()}
	if cfg.quick {
		recipe.Size = tdgen.SizeQuick
	}
	art, pin, err := bootArtifact(cfg.model, store, logger, func() (*registry.Artifact, error) {
		return trainArtifact(recipe, schema.Len(), names)
	})
	if err != nil {
		log.Fatal(err)
	}
	provider, err := registry.NewProvider(art)
	if err != nil {
		log.Fatal(err)
	}
	srv := &service.Server{
		Provider:        provider,
		ModelStore:      store,
		Feedback:        registry.NewFeedback(cfg.feedbackCap),
		Platforms:       plats,
		Avail:           avail,
		Cluster:         simulator.Default(),
		DefaultDeadline: deadline,
		Budget:          cfg.budget,
		Tracer:          obs.NewTracer(obs.DefaultTraceCap, traceSample, traceSlow),
		Logger:          logger,
		SLO:             obs.NewSLO(sloLatencyMs, sloTarget),
		Admission:       &service.Admission{ShedFraction: service.DefaultShedFraction},
		EnablePprof:     cfg.pprof,
	}
	srv.PlanCache = plancache.New(plancache.Config{TTL: cacheTTL, Metrics: srv.Metrics()})
	// The defaults of -replica-id (host:pid) and of the address other replicas
	// reach this one at (-advertise, else -addr with the host filled in): the
	// fleet registration record, and the address -peer-fill leaves out of
	// its own probes.
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	srv.ReplicaID = cfg.replicaID
	if srv.ReplicaID == "" {
		srv.ReplicaID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	scrapeAddr := cfg.advertise
	if scrapeAddr == "" {
		scrapeAddr = cfg.addr
	}
	if strings.HasPrefix(scrapeAddr, ":") {
		scrapeAddr = host + scrapeAddr
	}

	// The boot artifact becomes the served version the way every later one
	// does. A model that cannot score this deployment's plan vectors fails
	// here, before it is saved or activated: a width or platform-count
	// mismatch would produce garbage assignments on every request.
	if _, err := srv.Publish(art, pin); err != nil {
		log.Fatal(err)
	}

	// Shutdown: the first SIGINT/SIGTERM starts a graceful drain; the
	// background loops share the same root context and stop with it.
	rootCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var loops []<-chan struct{}
	started := func(done <-chan struct{}, err error) {
		if err != nil {
			log.Fatal(err)
		}
		loops = append(loops, done)
	}

	// With a store: follow it, converging on whatever another replica or an
	// operator makes ACTIVE (this replica's own promotions already match),
	// and heartbeat this replica's scrape address into it so peer fill and
	// obsctl discover it. The registration loop deregisters when rootCtx is
	// cancelled, i.e. before the drain finishes, so a clean shutdown leaves
	// no stale record behind.
	if store != nil {
		started(srv.StartStoreWatcher(rootCtx, registry.DefaultWatchInterval))
		started(srv.RegisterReplicaLoop(rootCtx, scrapeAddr, heartbeat))
		logger.Info("following the store and registered in it", "dir", cfg.modelDir,
			"interval", registry.DefaultWatchInterval, "replicaId", srv.ReplicaID, "addr", scrapeAddr, "heartbeat", heartbeat)
	}

	// Peer-fill: turn the per-process plan cache into a fleet-shared tier.
	// Peers are the other replicas registered in the shared store.
	if cfg.peerFill {
		filler, err := peercache.New(peercache.Config{
			SelfID:   srv.ReplicaID,
			SelfAddr: scrapeAddr,
			Peers: func() ([]registry.ReplicaInfo, error) {
				return store.Replicas(registry.DefaultReplicaTTL)
			},
			Metrics: srv.Metrics(),
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.PlanCache.SetRemoteFiller(filler)
		srv.PeerFill = filler
		logger.Info("peer-fill enabled", "addr", scrapeAddr)
	}

	// The read timeout bounds slow-loris plan uploads.
	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("serving",
		"addr", cfg.addr,
		"model", art.Version,
		"workers", core.ResolveWorkers(0),
		"deadline", deadline,
		"pprof", cfg.pprof,
		"version", buildinfo.Version())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-rootCtx.Done():
	}

	// Graceful drain: stop accepting connections, give in-flight requests
	// shutdownGrace to finish, and wait for the background loops (already
	// cancelled via rootCtx) to wind down. A second signal kills the
	// process the default way because stop() restored default handling.
	stop()
	// Flip readiness first so a load balancer polling /readyz stops routing
	// new traffic here while in-flight requests drain.
	srv.SetReady(false)
	logger.Info("shutdown signal received; draining", "grace", shutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	drainErr := hs.Shutdown(drainCtx)
	for _, done := range loops {
		<-done
	}
	logger.Info("background loops stopped", "loops", len(loops))
	if drainErr != nil && !errors.Is(drainErr, http.ErrServerClosed) {
		logger.Error("drain incomplete; open connections were cut", "err", drainErr)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// trainArtifact is what boot falls back to: train the recipe's model and
// describe it, rows fitted included (no holdout: every generated row trains).
func trainArtifact(recipe tdgen.Recipe, schemaWidth int, platforms []string) (*registry.Artifact, error) {
	fmt.Fprintln(os.Stderr, "roboptd: training a model on startup (pass -model or populate -model-dir to skip)")
	model, rows, err := recipe.Train()
	if err != nil {
		return nil, err
	}
	return registry.New(model, schemaWidth, platforms, rows, mlmodel.Metrics{})
}

// bootArtifact resolves the artifact to serve at startup: an explicit -model
// file wins, then the store's active version, then train. pin reports whether
// the artifact is one this process brings to the store (a file, a fresh
// model) and so has to be saved and made ACTIVE, or one read from it.
func bootArtifact(modelPath string, store *registry.Store, logger *slog.Logger, train func() (*registry.Artifact, error)) (art *registry.Artifact, pin bool, err error) {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		if art, err = registry.Read(f); err != nil {
			return nil, false, err
		}
		logger.Info("model loaded", "version", art.Version, "path", modelPath)
		return art, true, nil
	}
	if store != nil {
		if art, err = store.LoadActive(); err != nil {
			return nil, false, err
		}
		if art != nil {
			logger.Info("model loaded", "version", art.Version, "store", store.Dir())
			return art, false, nil
		}
	}
	if art, err = train(); err != nil {
		return nil, false, err
	}
	logger.Info("model trained")
	return art, true, nil
}
