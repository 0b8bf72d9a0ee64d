// Command roboptd serves the optimizer over HTTP: a cross-platform system
// POSTs its logical plan as JSON to /optimize and receives the chosen
// per-operator platform assignment, the conversion operators, the model's
// runtime prediction and the enumeration statistics.
//
//	roboptd -addr :8080 -model model.json
//	curl -XPOST -d @query.json 'localhost:8080/optimize?simulate=1'
//
// Without -model, a model is trained on startup (one-time, prints progress).
//
// # Model lifecycle
//
// The served model is a versioned artifact behind an atomically hot-swappable
// provider. With -model-dir, artifacts are persisted to (and loadable from) a
// file-backed store, and the admin endpoints GET /modelz, POST /modelz/reload
// and POST /modelz/promote manage which version serves. Each
// /optimize?simulate=1 response feeds its (plan vector, observed runtime)
// pair into a bounded feedback buffer (-feedback-cap); with
// -retrain-interval > 0, a background loop periodically retrains on that
// feedback and promotes the candidate only when its holdout error does not
// regress.
//
// # Plan cache
//
// Repeated structurally identical plans are served from a fingerprint-keyed
// plan cache (-cache-entries/-cache-bytes/-cache-ttl) instead of re-running
// the enumeration; concurrent identical requests collapse into one run.
// Entries are keyed by model version, and publishing a new one
// flash-invalidates plans scored by the outgoing model. Responses carry an
// X-Cache header; ?nocache=1 bypasses the cache per request; GET /cachez
// and POST /cachez/purge administer it.
//
// With -peer-fill (requires -model-dir and the cache), replicas sharing the
// store form a fleet-shared cache tier: a local miss first consults up to
// -peer-hedge live peers over GET /peercache (per-probe -peer-timeout,
// circuit breakers, memoized negatives) and installs a peer's entry instead
// of re-enumerating; responses served this way carry X-Cache: peer. Misses
// that stay cold claim the fingerprint in the shared store so exactly one
// replica fleet-wide enumerates while the others poll the claimant;
// ?nopeer=1 bypasses the tier per request.
//
// # Running a replica fleet
//
// N roboptd processes pointed at one shared -model-dir behave as a
// converging fleet: each replica compares the store's ACTIVE marker with the
// version it serves every -store-watch-interval and hot-swaps in what the
// marker names, whoever moved it — another replica, an operator, a background
// retrainer; a sync that fails is retried on the next tick. Promote once,
// converge everywhere, no restarts. GET /healthz is the liveness probe and
// GET /readyz the readiness probe (503 while draining or without a servable
// artifact), so a load balancer can gate traffic per replica.
//
// # Admission control
//
// The optimize endpoints sit behind a bounded admission layer: at most
// -admit-concurrency request units optimize at once, at most -admit-queue
// wait for a slot (honoring their deadlines), and everything beyond that is
// refused with 429 + Retry-After. Requests that queue behind a backlog past
// -shed-threshold of the queue are served the degraded beam (the plan is
// marked degraded with reason "load-shed") so overload drains instead of
// compounding. POST /optimize/batch admits a whole plan slice as one unit,
// deduplicates members by canonical fingerprint, and fans the remainder
// across the enumeration pool.
//
// # Observability
//
// Each request records a span trace keyed by its request ID — or by the
// caller's W3C trace ID when the request carries a traceparent header, whose
// sampled flag forces retention like ?trace=1. Notable traces (slow,
// degraded, errored, or forced) are always retained for GET /tracez,
// unremarkable ones at the -trace-sample rate. /metricz serves Prometheus
// text exposition with ?format=prometheus (labeled serving series carry
// exemplar trace IDs resolvable via /tracez), -pprof mounts net/http/pprof
// under /debug/pprof/, and -log-level/-log-format control the structured
// (log/slog) request and retraining logs.
//
// With -slo-latency-ms/-slo-target, every request feeds a rolling
// multi-window SLO tracker: GET /sloz reports each window's error-budget
// burn rate and the combined breach verdict, and the same numbers export as
// slo_* gauges on /metricz.
//
// Replicas sharing a -model-dir also register themselves in it
// (-replica-id/-advertise/-fleet-heartbeat): GET /fleetz on any replica —
// or the obsctl command — scrapes every registered replica and merges the
// fleet view (readiness, model-version convergence, cache hit rate, shed
// rate, worst SLO burn).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("roboptd: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		modelPath   = flag.String("model", "", "load a saved model artifact (otherwise use -model-dir's active version, or train on startup)")
		modelDir    = flag.String("model-dir", "", "artifact store directory backing /modelz/reload and /modelz/promote")
		nPlats      = flag.Int("platforms", platform.NumPlatforms, "number of platforms (2-5)")
		quick       = flag.Bool("quick", false, "train a small model on startup (fast, less faithful)")
		workers     = flag.Int("workers", 0, "enumeration parallelism (0 = all CPUs, runtime.GOMAXPROCS)")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request optimization deadline (override per request with ?deadline_ms=)")
		budgetVec   = flag.Int("budget-vectors", 0, "degrade enumeration after this many plan vectors (0 = unlimited)")
		budgetMC    = flag.Int("budget-model-calls", 0, "degrade enumeration after this many cost-oracle feature rows (0 = unlimited)")
		maxBody     = flag.Int64("max-body-bytes", service.DefaultMaxBodyBytes, "reject request bodies larger than this")
		retrainIntv = flag.Duration("retrain-interval", 0, "retrain on execution feedback at this period (0 = disabled)")
		feedbackCap = flag.Int("feedback-cap", registry.DefaultFeedbackCap, "execution-feedback buffer capacity")
		traceSample = flag.Float64("trace-sample", 0.1, "probability of retaining an unremarkable request trace (slow/degraded/errored/?trace=1 requests are always retained)")
		traceCap    = flag.Int("trace-cap", obs.DefaultTraceCap, "how many recent traces GET /tracez retains")
		traceSlow   = flag.Duration("trace-slow", time.Second, "always retain traces of requests at least this slow (0 = disabled)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		cacheSize   = flag.Int("cache-entries", plancache.DefaultMaxEntries, "plan cache capacity in entries (0 disables the cache)")
		cacheBytes  = flag.Int64("cache-bytes", plancache.DefaultMaxBytes, "plan cache capacity in accounted bytes")
		cacheTTL    = flag.Duration("cache-ttl", 10*time.Minute, "plan cache entry time-to-live (0 = no expiry)")
		peerFill    = flag.Bool("peer-fill", false, "on a local plan-cache miss, consult fleet peers over /peercache before enumerating (needs -model-dir and the cache)")
		peerTimeout = flag.Duration("peer-timeout", peercache.DefaultTimeout, "per-peer probe timeout for peer-fill lookups")
		peerHedge   = flag.Int("peer-hedge", peercache.DefaultHedge, "peers a cold lookup may consult concurrently (1 or 2)")
		shutdownGr  = flag.Duration("shutdown-grace", 10*time.Second, "how long to drain in-flight requests after SIGINT/SIGTERM")
		watchIntv   = flag.Duration("store-watch-interval", registry.DefaultWatchInterval, "poll -model-dir for promotions by other replicas at this period (0 = disabled)")
		admitConc   = flag.Int("admit-concurrency", 0, "max concurrently optimizing request units (0 = 2x CPUs, negative = no admission control)")
		admitQueue  = flag.Int("admit-queue", 0, "max request units waiting for an admission slot; beyond it requests get 429 (0 = 4x concurrency, negative = no queue)")
		shedThresh  = flag.Float64("shed-threshold", service.DefaultShedFraction, "queue-occupancy fraction past which admitted requests are shed to the degraded beam (>= 1 disables shedding)")
		batchMax    = flag.Int("batch-members", service.DefaultMaxBatchMembers, "max plans accepted by one POST /optimize/batch call")
		sloLatency  = flag.Float64("slo-latency-ms", 500, "latency objective: a request slower than this burns SLO error budget (0 disables SLO tracking)")
		sloTarget   = flag.Float64("slo-target", 0.99, "availability target: the fraction of requests that must meet the latency objective")
		replicaID   = flag.String("replica-id", "", "fleet identity of this replica (default host:pid)")
		advertise   = flag.String("advertise", "", "address other replicas scrape this one at (default -addr, with the hostname filled in)")
		fleetHB     = flag.Duration("fleet-heartbeat", 5*time.Second, "re-register in the shared -model-dir fleet at this period (0 disables registration)")
		showVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("roboptd"))
		fmt.Printf("workers: %d (from -workers %d; 0 resolves to runtime.GOMAXPROCS)\n",
			core.ResolveWorkers(*workers), *workers)
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat, "roboptd")
	if err != nil {
		log.Fatal(err)
	}

	plats := platform.Subset(*nPlats)
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
	if *modelDir != "" {
		if store, err = registry.OpenStore(*modelDir); err != nil {
			log.Fatal(err)
		}
	}

	// One recipe for the model trained at boot and the candidates the
	// retrainer fits on execution feedback.
	recipe := tdgen.Recipe{Platforms: plats, Avail: avail, Cluster: simulator.Default()}
	if *quick {
		recipe.Size = tdgen.SizeQuick
	}
	art, pin, err := bootArtifact(*modelPath, store, logger, func() (*registry.Artifact, error) {
		return trainArtifact(recipe, schema.Len(), names)
	})
	if err != nil {
		log.Fatal(err)
	}
	provider, err := registry.NewProvider(art)
	if err != nil {
		log.Fatal(err)
	}
	feedback := registry.NewFeedback(*feedbackCap)
	srv := &service.Server{
		Provider:        provider,
		ModelStore:      store,
		Feedback:        feedback,
		Platforms:       plats,
		Avail:           avail,
		Cluster:         simulator.Default(),
		Workers:         *workers,
		DefaultDeadline: *deadline,
		Budget:          core.Budget{MaxVectors: *budgetVec, MaxModelCalls: *budgetMC},
		MaxBodyBytes:    *maxBody,
		MaxBatchMembers: *batchMax,
		Tracer:          obs.NewTracer(*traceCap, *traceSample, *traceSlow),
		Logger:          logger,
		EnablePprof:     *pprofFlag,
	}
	if *sloLatency > 0 {
		srv.SLO = obs.NewSLO(*sloLatency, *sloTarget)
		logger.Info("slo tracking enabled", "objectiveMs", *sloLatency, "target", *sloTarget)
	}
	// The defaults of -replica-id (host:pid) and of the address other replicas
	// reach this one at (-advertise, else -addr with the host filled in): the
	// fleet registration record and, with -peer-fill, the owner address in
	// shared-store claim files that waiting replicas poll.
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	srv.ReplicaID = *replicaID
	if srv.ReplicaID == "" {
		srv.ReplicaID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	scrapeAddr := *advertise
	if scrapeAddr == "" {
		scrapeAddr = *addr
	}
	if strings.HasPrefix(scrapeAddr, ":") {
		scrapeAddr = host + scrapeAddr
	}
	if *admitConc >= 0 {
		srv.Admission = &service.Admission{
			MaxConcurrent: *admitConc,
			MaxQueue:      *admitQueue,
			ShedFraction:  *shedThresh,
		}
		logger.Info("admission control enabled",
			"concurrency", *admitConc, "queue", *admitQueue, "shedThreshold", *shedThresh)
	}

	if *cacheSize > 0 {
		cache := plancache.New(plancache.Config{
			MaxEntries: *cacheSize,
			MaxBytes:   *cacheBytes,
			TTL:        *cacheTTL,
			Metrics:    srv.Metrics(),
		})
		srv.PlanCache = cache
		logger.Info("plan cache enabled", "entries", *cacheSize, "bytes", *cacheBytes, "ttl", *cacheTTL)
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

	if *retrainIntv > 0 {
		srv.Retrainer = &registry.Retrainer{
			Provider: provider,
			Feedback: feedback,
			Train: func(ds *mlmodel.Dataset) (mlmodel.Model, error) {
				return recipe.Size.Fit(ds, 0)
			},
			SchemaWidth: schema.Len(),
			Platforms:   names,
			Metrics:     srv.Metrics(),
			Logger:      logger,
		}
		started(srv.StartRetrainLoop(rootCtx, *retrainIntv))
		logger.Info("retraining enabled", "interval", *retrainIntv, "feedbackCap", feedback.Cap())
	}

	// Store follower: converge on whatever another replica, an operator or a
	// retrainer makes ACTIVE. This replica's own promotions already match.
	if store != nil && *watchIntv > 0 {
		started(srv.StartStoreWatcher(rootCtx, *watchIntv))
		logger.Info("store follower enabled", "dir", *modelDir, "interval", *watchIntv)
	}

	// Fleet registration: heartbeat this replica's scrape address into the
	// shared store so GET /fleetz and obsctl discover it. The loop
	// deregisters when rootCtx is cancelled, i.e. before the drain finishes,
	// so a clean shutdown leaves no stale record behind.
	if store != nil && *fleetHB > 0 {
		started(srv.RegisterReplicaLoop(rootCtx, scrapeAddr, *fleetHB))
		logger.Info("fleet registration enabled",
			"replicaId", srv.ReplicaID, "addr", scrapeAddr, "heartbeat", *fleetHB)
	}

	// Peer-fill: turn the per-process plan cache into a fleet-shared tier.
	// Peers are the other replicas registered in the shared store; the claim
	// files that serialize cold enumerations fleet-wide live there too.
	if *peerFill {
		switch {
		case store == nil:
			log.Fatal("-peer-fill needs -model-dir (peers and claim files live in the shared store)")
		case srv.PlanCache == nil:
			log.Fatal("-peer-fill needs the plan cache (-cache-entries > 0)")
		}
		filler, err := peercache.New(peercache.Config{
			SelfID:   srv.ReplicaID,
			SelfAddr: scrapeAddr,
			Peers: func() ([]registry.ReplicaInfo, error) {
				return store.Replicas(registry.DefaultReplicaTTL)
			},
			Timeout: *peerTimeout,
			Hedge:   *peerHedge,
			Metrics: srv.Metrics(),
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.PlanCache.SetRemoteFiller(filler)
		srv.PeerFill = filler
		srv.AdvertiseAddr = scrapeAddr
		logger.Info("peer-fill enabled",
			"timeout", *peerTimeout, "hedge", *peerHedge, "addr", scrapeAddr)
	}

	// The write timeout leaves headroom over the optimization deadline so a
	// degraded-or-timed-out response can still be written; the read timeout
	// bounds slow-loris plan uploads.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *deadline + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("serving",
		"addr", *addr,
		"endpoints", "POST /optimize, POST /optimize/batch, GET /healthz, GET /readyz, GET /statz, GET /metricz, GET /tracez, GET /sloz, GET /fleetz, GET /modelz, GET /cachez",
		"model", art.Version,
		"workers", core.ResolveWorkers(*workers),
		"deadline", *deadline,
		"traceSample", *traceSample,
		"pprof", *pprofFlag,
		"version", buildinfo.Version())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-rootCtx.Done():
	}

	// Graceful drain: stop accepting connections, give in-flight requests
	// -shutdown-grace to finish, and wait for the background loops (already
	// cancelled via rootCtx) to wind down. A second signal kills the
	// process the default way because stop() restored default handling.
	stop()
	// Flip readiness first so a load balancer polling /readyz stops routing
	// new traffic here while in-flight requests drain.
	srv.SetReady(false)
	logger.Info("shutdown signal received; draining", "grace", *shutdownGr)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGr)
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
		if art, err = registry.ReadAny(f); err != nil {
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
