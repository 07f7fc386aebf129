// Package servetest provides an in-process test harness for the serving
// stack: a factory for loopback loosimd-equivalent backends (a real
// serve.Server behind a real httptest.Server, exercising the same HTTP
// JSON surface production traffic uses) and a scriptable fault-injecting
// http.RoundTripper for driving clients through 500s, dropped
// connections, hangs, truncated bodies, and latency spikes without a
// flaky network. The dispatch, serve, and loosweep tests all build on it.
package servetest

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"loosesim/internal/serve"
)

// Backend is one in-process serving node: a serve.Server exposed over a
// loopback HTTP listener.
type Backend struct {
	Server *serve.Server
	HTTP   *httptest.Server
	// URL is the backend's base URL, ready for a coordinator's backend
	// list.
	URL string
}

// StartBackend boots a backend with the given serve options. Callers own
// the result and must Close it.
func StartBackend(opts serve.Options) *Backend {
	srv := serve.New(opts)
	hs := httptest.NewServer(srv.Handler())
	return &Backend{Server: srv, HTTP: hs, URL: hs.URL}
}

// Close tears the backend down: the listener first (no new requests),
// then the server (cancels whatever is still running).
func (b *Backend) Close() {
	b.HTTP.Close()
	b.Server.Close()
}

// StartBackends boots n backends sharing nothing, and a closer that tears
// all of them down.
func StartBackends(n int, opts serve.Options) ([]*Backend, func()) {
	backends := make([]*Backend, n)
	for i := range backends {
		backends[i] = StartBackend(opts)
	}
	return backends, func() {
		for _, b := range backends {
			b.Close()
		}
	}
}

// URLs collects the base URLs of a backend set.
func URLs(backends []*Backend) []string {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.URL
	}
	return urls
}

// Fault selects how the Tripper sabotages one matched request.
type Fault int

// The injectable faults.
const (
	// Pass forwards the request untouched.
	Pass Fault = iota
	// Status500 answers 500 without reaching the backend (a dying proxy).
	Status500
	// DropConn fails the exchange with a transport error (connection
	// reset), never reaching the backend.
	DropConn
	// Hang blocks until the request's context is cancelled, then reports
	// its error (a black-holed connection that only the caller's context
	// ends).
	Hang
	// TruncateBody forwards the request but cuts the response body in
	// half, leaving the client an unparseable JSON fragment.
	TruncateBody
	// Latency delays the exchange by FaultSpec.Delay before forwarding.
	Latency
	// Status429 answers 429 with a Retry-After header without reaching
	// the backend (an overloaded node shedding load). FaultSpec.RetryAfter
	// sets the header, in whole seconds.
	Status429
)

// FaultSpec is one scripted fault.
type FaultSpec struct {
	Fault Fault
	// Delay is the added latency for Latency faults.
	Delay time.Duration
	// RetryAfter is the Retry-After header value for Status429 faults,
	// in whole seconds.
	RetryAfter int
}

// ErrDropped is the transport error DropConn injects.
var ErrDropped = errors.New("servetest: injected dropped connection")

// Tripper is a fault-injecting http.RoundTripper. Matched requests
// consume the script one entry per request, in order; once the script is
// exhausted (or for unmatched requests) it forwards untouched. Safe for
// concurrent use; concurrent matched requests consume distinct entries.
type Tripper struct {
	// Base performs real exchanges; nil selects
	// http.DefaultTransport.
	Base http.RoundTripper
	// Match limits fault injection to requests it accepts; nil matches
	// every request. Use it to aim faults at one backend of a fleet.
	Match func(*http.Request) bool
	// After is the timer source for Latency faults; nil selects
	// time.After.
	After func(time.Duration) <-chan time.Time

	mu     sync.Mutex
	script []FaultSpec
	next   int
}

// Script replaces the fault script and rewinds it.
func (t *Tripper) Script(faults ...FaultSpec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.script = faults
	t.next = 0
}

// Remaining reports how many scripted faults have not been consumed.
func (t *Tripper) Remaining() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.script) - t.next
}

// take consumes the next scripted fault, or Pass when exhausted.
func (t *Tripper) take() FaultSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next >= len(t.script) {
		return FaultSpec{Fault: Pass}
	}
	f := t.script[t.next]
	t.next++
	return f
}

func (t *Tripper) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *Tripper) after(d time.Duration) <-chan time.Time {
	if t.After != nil {
		return t.After(d)
	}
	return time.After(d)
}

// RoundTrip implements http.RoundTripper.
func (t *Tripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Match != nil && !t.Match(req) {
		return t.base().RoundTrip(req)
	}
	spec := t.take()
	switch spec.Fault {
	case Pass:
		return t.base().RoundTrip(req)
	case Status500:
		return syntheticResponse(req, http.StatusInternalServerError,
			[]byte(`{"error":"servetest: injected 500"}`)), nil
	case Status429:
		resp := syntheticResponse(req, http.StatusTooManyRequests,
			[]byte(`{"error":"servetest: injected queue full"}`))
		resp.Header.Set("Retry-After", strconv.Itoa(spec.RetryAfter))
		return resp, nil
	case DropConn:
		return nil, ErrDropped
	case Hang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case TruncateBody:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return truncateBody(resp)
	case Latency:
		select {
		case <-t.after(spec.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base().RoundTrip(req)
	default:
		return nil, errors.New("servetest: unknown fault")
	}
}

// syntheticResponse fabricates a response that never touched a server.
func syntheticResponse(req *http.Request, code int, body []byte) *http.Response {
	return &http.Response{
		StatusCode:    code,
		Status:        http.StatusText(code),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody swaps resp's body for its first half, invalidating any
// JSON payload while keeping the 200 status — the torn-response case a
// client must treat as a failed exchange.
func truncateBody(resp *http.Response) (*http.Response, error) {
	full, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	cut := full[:len(full)/2]
	resp.Body = io.NopCloser(bytes.NewReader(cut))
	resp.ContentLength = int64(len(cut))
	return resp, nil
}
