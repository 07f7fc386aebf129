package obs

import (
	"encoding/json"
	"io"
)

// RingWriter is the event stream's JSONL writer. Events accumulate in a
// fixed-capacity ring that is encoded and flushed in batches, keeping the
// hot path to an append. Errors latch, mirroring pipeline.Tracer's
// contract: the first write error stops further output, later events are
// dropped, and the caller must check Flush/Err after the run — the writer
// never aborts the simulation itself.
type RingWriter struct {
	enc *json.Encoder
	buf []Event
	err error
}

// ringBatch is the number of events a RingWriter buffers per flush.
const ringBatch = 4096

// NewRingWriter writes events to w as JSON Lines, flushing every
// ringBatch events.
func NewRingWriter(w io.Writer) *RingWriter {
	return &RingWriter{
		enc: json.NewEncoder(w),
		buf: make([]Event, 0, ringBatch),
	}
}

// Event buffers one record, flushing the ring when it fills.
func (r *RingWriter) Event(e Event) {
	if r.err != nil {
		return
	}
	// simlint:prealloc ring sized to ringBatch at construction; flush precedes overflow
	r.buf = append(r.buf, e)
	if len(r.buf) >= ringBatch {
		r.flush()
	}
}

// flush drains the ring to the encoder, latching the first error. Encoding
// boxes and formats, but only once per ring capacity, not per event.
//
// simlint:coldpath batch drain amortised over the ring capacity
func (r *RingWriter) flush() {
	for _, e := range r.buf {
		if err := r.enc.Encode(e); err != nil {
			r.err = err
			break
		}
	}
	r.buf = r.buf[:0]
}

// Flush drains any buffered events and returns the first latched error.
// Call it once the run completes; a RingWriter holds no OS resources, so
// there is no separate Close.
func (r *RingWriter) Flush() error {
	if r.err == nil {
		r.flush()
	}
	return r.err
}

// Err returns the first write error, if any.
func (r *RingWriter) Err() error { return r.err }

// IntervalJSONL writes the interval time series as JSON Lines (one
// Interval object per line). Errors latch; check Err after the run.
type IntervalJSONL struct {
	enc *json.Encoder
	err error
}

// NewIntervalJSONL returns a JSONL interval writer over w.
func NewIntervalJSONL(w io.Writer) *IntervalJSONL {
	return &IntervalJSONL{enc: json.NewEncoder(w)}
}

// Interval writes one record, once per sample period.
//
// simlint:coldpath interval reporting amortised over the sample period
func (j *IntervalJSONL) Interval(iv Interval) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(iv)
}

// Err returns the first write error, if any.
func (j *IntervalJSONL) Err() error { return j.err }
