package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/hcache"
	"repro/internal/stats"
	"repro/internal/store"
)

// opHeader carries the client's request span id to the handler middleware,
// so the handler span can name its parent.
const opHeader = "X-Bench-Op"

// superd is an in-process daemon on a unix socket. Untraced rounds run
// Server.Serve itself; traced rounds serve Server.Handler() through their own
// http.Server with a timing middleware.
type superd struct {
	tr        *tracer
	srv       *daemon.Server
	http      *http.Server
	addr      string
	served    chan error
	storeOpen time.Duration
	mark      int // spans before the timed requests, excluded from handler times
}

func startSuperd(a *childArgs, root, storeDir string) (*superd, error) {
	t0 := time.Now()
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	sd := &superd{tr: a.tr, storeOpen: time.Since(t0), served: make(chan error, 1)}
	sd.srv = daemon.NewServer(daemon.Config{Root: root, MaxJobs: nproc(), Store: st})
	sd.addr = "unix:" + filepath.Join(a.work, fmt.Sprintf("superd-%d.sock", a.round))
	ln, err := daemon.Listen(sd.addr)
	if err != nil {
		return nil, err
	}
	if a.tr == nil {
		go func() { sd.served <- sd.srv.Serve(ln) }()
	} else {
		sd.http = &http.Server{Handler: sd.timed(sd.srv.Handler())}
		go func() { sd.served <- sd.http.Serve(ln) }()
	}
	return sd, nil
}

// stop drains the daemon and waits for its serving goroutine to return.
func (sd *superd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if sd.http != nil {
		sd.srv.Drain()
		sd.http.Shutdown(ctx)
	} else {
		sd.srv.Shutdown(ctx)
	}
	<-sd.served
}

// timed records one handler span per request that carries a client span id.
func (sd *superd) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if parent, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			sd.tr.addSpan("handler", r.URL.Path, parent, 0, t0, time.Since(t0))
		}
	})
}

// benchClient is a thin superd client whose calls are traced as request
// spans. Each is used by one goroutine at a time.
type benchClient struct {
	*daemon.Client
	tr  *tracer
	tid int
	cur atomic.Int64 // span id of the call in flight
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (sd *superd) dial(tid int) (*benchClient, error) {
	c := &benchClient{tr: sd.tr, tid: tid}
	opts := daemon.ClientOptions{Warn: io.Discard}
	if sd.tr != nil {
		opts.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
			return roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if id := c.cur.Load(); id != 0 {
					r = r.Clone(r.Context())
					r.Header.Set(opHeader, strconv.FormatInt(id, 10))
				}
				return rt.RoundTrip(r)
			})
		}
	}
	dc, err := daemon.DialOptions(sd.addr, opts)
	if err != nil {
		return nil, err
	}
	c.Client = dc
	return c, nil
}

// call runs one request inside a request span.
func (c *benchClient) call(op string, fn func() error) error {
	id := c.tr.begin("request", op, 0, c.tid)
	c.cur.Store(int64(id))
	err := fn()
	c.cur.Store(0)
	c.tr.end(id)
	return err
}

// addLayers fills the header cache, store and daemon metrics from the
// /v1/stats counters taken before and after the timed requests, the clients'
// counters, and the request and handler spans.
func (sd *superd) addLayers(m perLayer, before, after map[string]int64, clients []*benchClient) {
	d := func(k string) int64 { return after[k] - before[k] }
	m.addHeaderCache(hcache.Snapshot{
		HeaderHits: d("hcache_header_hits"), HeaderMisses: d("hcache_header_misses"),
		LexHits: d("hcache_lex_hits"), LexMisses: d("hcache_lex_misses"),
		BytesSaved: d("hcache_bytes_saved"),
	})
	gets := float64(d("store_hits") + d("store_misses"))
	m["store.open_ms"] = msOf(sd.storeOpen)
	m["store.gets"] = gets
	m["store.hit_ratio"] = ratio(float64(d("store_hits")), gets)
	m["store.writes"] = float64(d("store_writes"))
	m["store.write_bytes"] = float64(d("store_bytes"))
	m["store.facts_hit_ratio"] = ratio(float64(d("link_facts_hits")), float64(d("link_facts_hits")+d("link_facts_misses")))
	m["daemon.admission_queued"] = float64(d("admission_queued_total"))
	m["daemon.shed"] = float64(d("admission_shed"))
	var retries int64
	for _, c := range clients {
		retries += c.Metrics().Retries
	}
	m["daemon.client_retries"] = float64(retries)

	var handler, transport stats.Sample
	for _, s := range sd.tr.spans[sd.mark:] {
		if s.Name != "handler" {
			continue
		}
		h := s.End - s.Start
		req := sd.tr.spans[s.Parent-1]
		handler.Add(msOf(h))
		transport.Add(msOf(req.End - req.Start - h))
	}
	m["daemon.handler_ms_p50"] = handler.Percentile(0.5)
	m["daemon.handler_ms_p99"] = handler.Percentile(0.99)
	m["daemon.transport_ms_p50"] = transport.Percentile(0.5)
}
