package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAdmissionFastPathAndShed(t *testing.T) {
	a := newAdmission(1, 0, 10*time.Millisecond)
	release, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("empty valve shed the first request")
	}
	if a.ready() {
		t.Error("saturated valve (no queue) reports ready")
	}
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("second request admitted past maxInFlight=1 with no queue")
	}
	release()
	if !a.ready() {
		t.Error("released valve not ready")
	}
	if a.admitted.Load() != 1 || a.shed.Load() != 1 {
		t.Fatalf("admitted=%d shed=%d; want 1, 1", a.admitted.Load(), a.shed.Load())
	}
}

func TestAdmissionQueueHandoff(t *testing.T) {
	a := newAdmission(1, 1, time.Minute)
	release, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire failed")
	}
	got := make(chan bool)
	go func() {
		r2, ok := a.acquire(context.Background())
		if ok {
			defer r2()
		}
		got <- ok
	}()
	// Wait until the second request is queued, then free the slot.
	for i := 0; a.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if a.queued.Load() != 1 {
		t.Fatal("second request never queued")
	}
	release()
	if !<-got {
		t.Fatal("queued request shed despite a freed slot")
	}
	if a.queuedTotal.Load() != 1 {
		t.Fatalf("queuedTotal = %d; want 1", a.queuedTotal.Load())
	}
}

func TestAdmissionQueueWaitExpires(t *testing.T) {
	a := newAdmission(1, 1, 5*time.Millisecond)
	release, _ := a.acquire(context.Background())
	defer release()
	start := time.Now()
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("request admitted while the only slot was held")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("queue wait far exceeded its bound")
	}
}

func TestAdmissionCallerDeadline(t *testing.T) {
	a := newAdmission(1, 1, time.Minute)
	release, _ := a.acquire(context.Background())
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, ok := a.acquire(ctx); ok {
		t.Fatal("request admitted past its own deadline")
	}
}

func TestAdmissionDrain(t *testing.T) {
	a := newAdmission(4, 4, time.Second)
	release, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("acquire before drain failed")
	}
	a.drain()
	if a.ready() {
		t.Error("draining valve reports ready")
	}
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("request admitted while draining")
	}
	release() // in-flight work finishes normally
}

// postLint sends a raw lint request so status codes and headers are visible
// without the client's retry layer.
func postLint(t *testing.T, url string, files []string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(LintRequest{Files: files, IncludePaths: []string{"inc"}, Mode: "bdd"})
	resp, err := http.Post(url+"/v1/lint", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/lint: %v", err)
	}
	return resp
}

// TestServerShedsWith429 saturates a MaxInFlight=1, no-queue server and
// checks the overload surface: 429 with Retry-After, shed counter, readiness
// flipped false, and the in-flight request unharmed.
func TestServerShedsWith429(t *testing.T) {
	s := NewServer(Config{Root: writeTestTree(t), MaxInFlight: 1, QueueDepth: -1})
	block := make(chan struct{})
	admitted := make(chan struct{}, 8)
	s.afterAdmit = func() {
		admitted <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() { first <- postLint(t, ts.URL, []string{"a.c"}) }()
	<-admitted // the slot is held

	resp := postLint(t, ts.URL, []string{"a.c"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	// Readiness is down while saturated; liveness stays up.
	var h HealthResponse
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !h.OK || h.Ready {
		t.Fatalf("saturated healthz = %d %+v; want 200, ok, not ready", hr.StatusCode, h)
	}

	close(block)
	fr := <-first
	defer fr.Body.Close()
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request got %d after a shed; want 200", fr.StatusCode)
	}
	if got := s.snapshot().Get("admission_shed"); got != 1 {
		t.Errorf("admission_shed = %d; want 1", got)
	}
}

// TestGracefulDrain proves the drain contract: an in-flight request runs to
// completion and returns a full response, while the readiness probe reports
// not-ready and new requests are shed with 503.
func TestGracefulDrain(t *testing.T) {
	s := NewServer(Config{Root: writeTestTree(t)})
	block := make(chan struct{})
	admitted := make(chan struct{}, 8)
	s.afterAdmit = func() {
		admitted <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() { first <- postLint(t, ts.URL, []string{"a.c"}) }()
	<-admitted
	s.Drain()

	// New work is shed with 503 (drain, not overload).
	resp := postLint(t, ts.URL, []string{"a.c"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain = %d; want 503", resp.StatusCode)
	}

	// The readiness probe fails; plain liveness still answers 200.
	rr, err := http.Get(ts.URL + "/healthz?probe=readiness")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readiness probe during drain = %d; want 503", rr.StatusCode)
	}
	lr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, lr.Body)
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Fatalf("liveness probe during drain = %d; want 200", lr.StatusCode)
	}

	// The in-flight request completes with a full, valid response.
	close(block)
	fr := <-first
	defer fr.Body.Close()
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d; want 200", fr.StatusCode)
	}
	var lintResp LintResponse
	if err := json.NewDecoder(fr.Body).Decode(&lintResp); err != nil {
		t.Fatalf("in-flight response torn by drain: %v", err)
	}
	if len(lintResp.Units) != 1 || lintResp.Units[0].Failed {
		t.Fatalf("in-flight response incomplete: %+v", lintResp)
	}
	if got := s.snapshot().Get("draining"); got != 1 {
		t.Errorf("draining counter = %d; want 1", got)
	}
}

// TestDeadlineHeaderPropagates proves the client deadline header becomes the
// handler's context deadline — the path into every unit's guard budget.
func TestDeadlineHeaderPropagates(t *testing.T) {
	s := NewServer(Config{Root: t.TempDir()})
	var deadline time.Time
	var has bool
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		deadline, has = r.Context().Deadline()
	})

	req := httptest.NewRequest(http.MethodPost, "/v1/lint", strings.NewReader("{}"))
	req.Header.Set(DeadlineHeader, "5000")
	h(httptest.NewRecorder(), req)
	if !has {
		t.Fatal("deadline header did not reach the handler context")
	}
	if until := time.Until(deadline); until <= 0 || until > 5*time.Second {
		t.Fatalf("context deadline %v away; want within (0, 5s]", until)
	}

	has = false
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/lint", strings.NewReader("{}")))
	if has {
		t.Fatal("handler context has a deadline without the header")
	}
}
