// Command superd is the SuperC parse daemon: it keeps a corpus warm — one
// shared header cache, optionally persisted to an on-disk artifact store —
// and serves parse, lint, link, and corpus-sweep batches to the superc,
// clint, and cstats clients over HTTP+JSON on a unix socket or TCP address.
//
// The /v1/link endpoint joins per-unit conditional link facts corpus-wide
// (clint -link is its thin client); extracted facts persist in the store's
// "link" namespace keyed by request fingerprint, build and file, beside the
// unit's read set (every file it read, with its hash, and every include-path
// probe), which a lookup re-checks. Warm batches skip re-parsing exactly the
// units whose files and headers are unchanged, even across restarts.
//
// Per-request guard budgets are clamped against the daemon's -timeout and
// -budget-* caps, so a single client cannot monopolize the pool with an
// unbounded unit. SIGINT/SIGTERM drains gracefully: the listener closes,
// in-flight batches finish (up to -drain), then the process exits.
//
// Usage:
//
//	superd [flags]
//
// Examples:
//
//	superd -listen unix:/tmp/superd.sock -store .superc-store
//	superd -listen 127.0.0.1:7433 -root /src/linux -max-jobs 8
//	superc -daemon unix:/tmp/superd.sock file.c     # thin-client run
//	curl --unix-socket /tmp/superd.sock http://superd/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/guard"
	"repro/internal/store"
)

func main() {
	listen := flag.String("listen", "unix:superd.sock", "listen address: unix:PATH or HOST:PORT")
	root := flag.String("root", ".", "directory file-serving requests are confined to")
	storeDir := flag.String("store", "", "artifact store directory persisting warm state across restarts (empty: in-memory only)")
	storeMax := flag.Int64("store-max-bytes", 0, "artifact store size bound in bytes (0: default 256 MiB)")
	maxJobs := flag.Int("max-jobs", 0, "per-request worker-pool clamp (0: GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent batch-request admission bound; excess queues then sheds with 429 (0: 2x max-jobs)")
	queueDepth := flag.Int("queue-depth", 0, "admission waiting-room size (0: 16, negative: shed immediately at saturation)")
	queueWait := flag.Duration("queue-wait", 0, "longest a queued request waits for an execution slot before shedding (0: 1s)")
	readTimeout := flag.Duration("read-timeout", 0, "per-connection request read timeout (0: 60s)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-connection response write timeout; must cover the slowest batch (0: 10m)")
	caps := guard.FlagLimits(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "superd: ", log.LstdFlags)

	cfg := daemon.Config{
		Root:         *root,
		MaxJobs:      *maxJobs,
		Caps:         *caps,
		MaxInFlight:  *maxInFlight,
		QueueDepth:   *queueDepth,
		QueueWait:    *queueWait,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{MaxBytes: *storeMax})
		if err != nil {
			logger.Fatalf("open store: %v", err)
		}
		cfg.Store = st
		snap := st.Stats()
		logger.Printf("store %s: %d artifacts, %d bytes", *storeDir, snap.Entries, snap.Bytes)
	}

	srv := daemon.NewServer(cfg)
	l, err := daemon.Listen(*listen)
	if err != nil {
		logger.Fatalf("listen %s: %v", *listen, err)
	}
	logger.Printf("listening on %s (root %s, max-jobs %d)", l.Addr(), *root, cfg.MaxJobs)

	// Graceful drain: the first signal stops accepting and waits for
	// in-flight batches; a second signal (or the drain deadline) forces
	// exit via the context.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case err := <-done:
		logger.Fatalf("serve: %v", err)
	case sig := <-sigs:
		logger.Printf("%s: draining (deadline %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		go func() {
			<-sigs
			logger.Printf("second signal: forcing shutdown")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
			cancel()
			os.Exit(1)
		}
		cancel()
		if cfg.Store != nil {
			snap := cfg.Store.Stats()
			fmt.Fprintf(os.Stderr, "superd: store at exit: %d artifacts, %d bytes, %d hits, %d writes\n",
				snap.Entries, snap.Bytes, snap.Hits, snap.Writes)
		}
		logger.Printf("drained")
	}
}
