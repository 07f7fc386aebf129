package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"loosesim/internal/trace"
)

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/jobs        submit a JobSpec; "?wait=1" blocks until the
//	                           job finishes (client disconnect cancels it)
//	GET    /api/v1/jobs        list all jobs in submission order
//	GET    /api/v1/jobs/{id}   one job's status (and result, when done)
//	DELETE /api/v1/jobs/{id}   request cooperative cancellation
//	GET    /metrics            queue, cache, throughput, and loop metrics
//	GET    /healthz            liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON writes v's JSON encoding, newline-terminated as json.Encoder
// writes it, as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	writeBody(w, code, append(b, '\n'), err)
}

// appendStatus appends the JSON encoding of a job's status to b, with enc
// (the job's result encoding, or nil) spliced in as the "result" member.
// The bytes are exactly json.Marshal's for the Status with its Result
// decoded from enc, without decoding it: encoding/json writes a nested
// Result as it writes one alone, and "result" is the last member a
// single-simulation job's status has (only figure jobs carry a table,
// and they have no result), so the splice goes before the closing brace.
func appendStatus(b []byte, st Status, enc []byte) ([]byte, error) {
	head, err := json.Marshal(st)
	if err != nil {
		return b, err
	}
	if enc == nil {
		return append(b, head...), nil
	}
	b = append(b, head[:len(head)-1]...)
	b = append(b, `,"result":`...)
	b = append(b, enc...)
	return append(b, '}'), nil
}

// writeStatus writes a job snapshot as the response body: the bytes
// writeJSON would write for the job's Status, with the result served from
// its stored encoding.
func writeStatus(w http.ResponseWriter, code int, st Status, enc []byte) {
	b, err := appendStatus(nil, st, enc)
	writeBody(w, code, append(b, '\n'), err)
}

// writeBody writes an encoded response body. An encode error has no
// recovery once the header is committed: the client sees an empty body.
func writeBody(w http.ResponseWriter, code int, b []byte, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(b)
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A coordinator-supplied Traceparent header links this job's spans
	// into the submitting attempt's trace. Malformed headers are ignored
	// (Parse rejects them), not errors: tracing is advisory.
	parent, _ := trace.Parse(r.Header.Get(trace.TraceparentHeader))
	job, err := s.submitBody(body, parent)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull):
			// The backoff signal the dispatch coordinator steers by:
			// without it a 429 tells a client nothing about when capacity
			// might return.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// The client went away while waiting: abort its job rather
			// than burning a worker on a result nobody will read.
			job.Cancel()
			return
		}
	}
	st, enc := job.snapshot()
	code := http.StatusAccepted
	if st.State != StateQueued {
		code = http.StatusOK
	}
	writeStatus(w, code, st, enc)
}

// maxBodyHint caps the buffer a request's Content-Length reserves up
// front; a longer body still reads in full, growing as it goes.
const maxBodyHint = 1 << 20

// readBody reads a request body whole, into a buffer sized from its
// Content-Length when it declares one.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyHint {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// requestIndexCap bounds the request index; a full index is cleared
// rather than evicted piecemeal, since a cleared entry costs only one
// decode the next time its body arrives.
const requestIndexCap = 4096

// submitBody submits a JSON-encoded JobSpec. A repeat is recognised by its
// bytes: a body whose sha256 the request index holds is answered from the
// store under the key it decoded to before, without decoding it again.
// That is safe because decoding, validation and the content key are pure
// functions of the bytes, so identical bytes always reach the same key;
// the index only maps a digest to a key, and the store stays the only
// authority on what a key holds. Only a body that decoded, validated and
// produced a cacheable key is indexed — no figure or no-cache jobs — and
// anything the index cannot answer (an unknown digest, a key the store no
// longer holds, a draining server) takes the decode path.
func (s *Server) submitBody(body []byte, parent trace.SpanContext) (*Job, error) {
	digest := sha256.Sum256(body)
	if job := s.submitIndexed(digest, parent); job != nil {
		return job, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, err
	}
	key, err := spec.key()
	if err != nil {
		return nil, err
	}
	if key != "" && !spec.NoCache {
		s.mu.Lock()
		if len(s.requests) >= requestIndexCap {
			clear(s.requests)
		}
		s.requests[digest] = key
		s.mu.Unlock()
	}
	return s.admit(spec, key, parent)
}

// submitIndexed answers an indexed request body whose key the store still
// holds, as the cache hit a decoded submission of the same bytes would be.
// It returns nil when it cannot, and the caller decodes the body instead.
func (s *Server) submitIndexed(digest [sha256.Size]byte, parent trace.SpanContext) *Job {
	s.mu.Lock()
	key, ok := s.requests[digest]
	if !ok || s.draining {
		s.mu.Unlock()
		return nil
	}
	enc, ok, err := s.store.Get(key)
	if err != nil || !ok {
		s.mu.Unlock()
		return nil
	}
	jsp := s.serveSpan(parent, key, "")
	return s.hitLocked(key, enc, jsp, jsp.Child("cache"))
}

// handleList writes every job's status as one JSON array, the bytes
// writeJSON would write for s.Jobs().
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	b := []byte{'['}
	var err error
	for i, job := range s.jobList() {
		if i > 0 {
			b = append(b, ',')
		}
		st, enc := job.snapshot()
		if b, err = appendStatus(b, st, enc); err != nil {
			break
		}
	}
	writeBody(w, http.StatusOK, append(b, ']', '\n'), err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	st, enc := job.snapshot()
	writeStatus(w, http.StatusOK, st, enc)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	job.Cancel()
	st, enc := job.snapshot()
	writeStatus(w, http.StatusOK, st, enc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteProm(w, s.Metrics()); err != nil {
			_ = err // header committed; the client sees the truncation
		}
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// wantsProm reports whether the request asked for Prometheus text
// exposition, either explicitly (?format=prom) or by content negotiation.
// Clients that send no Accept header (http.Get, the existing JSON golden
// tests) keep getting JSON.
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
