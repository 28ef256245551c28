package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// ClientOptions tunes the thin client's survivability layer. The zero value
// gets production defaults; explicit negatives disable a knob.
type ClientOptions struct {
	// RequestTimeout bounds one batch operation end to end, retries
	// included; the remaining budget is forwarded to the server per attempt
	// via DeadlineHeader. 0 means 2m; negative means no deadline.
	RequestTimeout time.Duration
	// HealthTimeout bounds one /healthz probe (0: 5s). Probes never retry —
	// Dial's caller decides what an unreachable daemon means.
	HealthTimeout time.Duration
	// Retries is how many times a failed attempt is retried (0: 3 retries;
	// negative: none). Retrying is always safe: requests are pure.
	Retries int
	// BackoffBase/BackoffMax shape the exponential retry delay
	// (0: 100ms base, 5s cap). A server Retry-After raises the delay floor.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens the circuit breaker after that many consecutive
	// failed operations (0: 5; negative: breaker disabled). While open,
	// operations fail instantly with ErrBreakerOpen until a cooldown probe
	// succeeds, so callers fall back to in-process work without waiting out
	// timeouts against a dead daemon.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// half-open probe (0: 10s).
	BreakerCooldown time.Duration
	// JitterSeed makes retry jitter deterministic for a given seed; 0 is a
	// fixed default seed (jitter is still well-spread across attempts).
	JitterSeed int64
	// WrapTransport, when set, wraps the client's dialing transport — the
	// chaos suite injects its fault transport here.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// Warn receives deduplicated one-line warnings (retry storms, breaker
	// opening). nil means os.Stderr; io.Discard silences them.
	Warn io.Writer
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.Warn == nil {
		o.Warn = os.Stderr
	}
	return o
}

// ClientMetrics is a snapshot of the client's resilience counters; cstats
// -daemon -metrics prints it as its "daemon client" line.
type ClientMetrics struct {
	Attempts     int64  // HTTP attempts issued (first tries + retries)
	Retries      int64  // attempts that were retries
	Sheds        int64  // 429/503 overload responses observed
	BreakerOpens int64  // closed/half-open → open transitions
	FastFails    int64  // operations rejected locally by the open breaker
	BreakerState string // "closed", "open", "half-open", or "disabled"
}

// Client is a thin superd client. The zero value is not usable; Dial or
// DialOptions constructs one bound to a -daemon style address.
type Client struct {
	base string // always http://superd for unix sockets, http://host:port for TCP
	hc   *http.Client
	opts ClientOptions
	brk  *breaker

	// sleep is the retry delay, injectable so chaos tests run at full speed.
	sleep func(ctx context.Context, d time.Duration) error

	attempts, retries stats.Counter
	sheds, fastFails  stats.Counter

	warnMu sync.Mutex
	warned map[string]bool
}

// Dial builds a client with default options and verifies the daemon is alive
// and speaks this protocol version.
func Dial(addr string) (*Client, error) { return DialOptions(addr, ClientOptions{}) }

// DialOptions is Dial with explicit resilience options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	c := newClient(addr, opts)
	h, err := c.Health()
	if err != nil {
		return nil, fmt.Errorf("daemon at %s unreachable: %w", addr, err)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("daemon at %s speaks %s, this client needs %s", addr, h.Version, Version)
	}
	return c, nil
}

func newClient(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	network, dialAddr := "tcp", addr
	base := "http://" + addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, dialAddr, base = "unix", path, "http://superd"
	} else if strings.Contains(addr, "/") {
		network, dialAddr, base = "unix", addr, "http://superd"
	} else if hostport, ok := strings.CutPrefix(addr, "tcp:"); ok {
		dialAddr, base = hostport, "http://"+hostport
	}
	var rt http.RoundTripper = &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, dialAddr)
		},
	}
	if opts.WrapTransport != nil {
		rt = opts.WrapTransport(rt)
	}
	return &Client{
		base: base,
		hc:   &http.Client{Transport: rt},
		opts: opts,
		brk:  newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		warned: make(map[string]bool),
	}
}

// Metrics snapshots the resilience counters.
func (c *Client) Metrics() ClientMetrics {
	state, opens := c.brk.snapshot()
	return ClientMetrics{
		Attempts:     c.attempts.Load(),
		Retries:      c.retries.Load(),
		Sheds:        c.sheds.Load(),
		BreakerOpens: opens,
		FastFails:    c.fastFails.Load(),
		BreakerState: state,
	}
}

// warnf writes one line to opts.Warn, once per distinct key.
func (c *Client) warnf(key, format string, args ...any) {
	c.warnMu.Lock()
	seen := c.warned[key]
	c.warned[key] = true
	c.warnMu.Unlock()
	if !seen {
		fmt.Fprintf(c.opts.Warn, format+"\n", args...)
	}
}

// do runs one operation through the full resilience stack: overall deadline,
// circuit breaker, retry loop with exponential backoff honoring Retry-After.
// Every request is pure, so every failure mode is safe to retry.
func (c *Client) do(path string, body []byte, out any) error {
	ctx := context.Background()
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		if !c.brk.allow() {
			c.fastFails.Inc()
			return fmt.Errorf("%w (%s)", ErrBreakerOpen, path)
		}
		c.attempts.Inc()
		err := c.once(ctx, path, body, out)
		if err == nil {
			c.brk.success()
			return nil
		}
		c.brk.failure()
		if shedStatus(err) {
			c.sheds.Inc()
		}
		if state, _ := c.brk.snapshot(); state == "open" {
			c.warnf("breaker", "superd client: circuit breaker opened after repeated failures (%v); falling back until the daemon recovers", err)
		}
		if !retryable(err) || attempt >= c.opts.Retries || ctx.Err() != nil {
			return err
		}
		delay := backoff(c.opts.BackoffBase, c.opts.BackoffMax, c.opts.JitterSeed, path, attempt)
		var se *httpStatusError
		if errors.As(err, &se) && se.retryAfter > delay {
			delay = se.retryAfter
		}
		c.warnf("retry:"+path, "superd client: %s failed (%v); retrying with backoff", path, err)
		if c.sleep(ctx, delay) != nil {
			return err // deadline spent mid-backoff: surface the real failure
		}
		c.retries.Inc()
	}
}

// once issues a single HTTP attempt. The server learns the remaining client
// deadline through DeadlineHeader so it never queues work past it.
func (c *Client) once(ctx context.Context, path string, body []byte, out any) error {
	method, url := http.MethodGet, c.base+path
	var rd io.Reader
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, fmt.Sprintf("%d", ms))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

// post sends a JSON request body through the retry stack and decodes the
// JSON response into out.
func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(path, body, out)
}

func (c *Client) get(path string, out any) error {
	return c.do(path, nil, out)
}

func decode(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		se := &httpStatusError{
			status:     resp.StatusCode,
			retryAfter: parseRetryAfter(resp.Header),
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			se.msg = e.Error
		}
		return se
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks liveness without the version gate (Dial applies it). It is a
// single bounded attempt — a probe should fail fast when nothing listens,
// never spend a retry budget (fixing the old implementation's racy swap of
// the shared http.Client timeout).
func (c *Client) Health() (*HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.HealthTimeout)
	defer cancel()
	var h HealthResponse
	if err := c.once(ctx, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Lint runs a clint batch on the daemon.
func (c *Client) Lint(req *LintRequest) (*LintResponse, error) {
	var resp LintResponse
	if err := c.post("/v1/lint", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Units) != len(req.Files) {
		return nil, fmt.Errorf("daemon: %d units for %d files", len(resp.Units), len(req.Files))
	}
	if req.Link && resp.Link == nil {
		return nil, fmt.Errorf("daemon: lint response lacks the requested link join")
	}
	return &resp, nil
}

// Parse runs a superc batch on the daemon.
func (c *Client) Parse(req *ParseRequest) (*ParseResponse, error) {
	var resp ParseResponse
	if err := c.post("/v1/parse", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Units) != len(req.Files) {
		return nil, fmt.Errorf("daemon: %d units for %d files", len(resp.Units), len(req.Files))
	}
	return &resp, nil
}

// Link runs a whole-corpus link batch on the daemon.
func (c *Client) Link(req *LinkRequest) (*LinkResponse, error) {
	var resp LinkResponse
	if err := c.post("/v1/link", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Corpus runs a harness sweep on the daemon.
func (c *Client) Corpus(req *CorpusRequest) (*CorpusResponse, error) {
	var resp CorpusResponse
	if err := c.post("/v1/corpus", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the daemon's counter snapshot.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get("/v1/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
