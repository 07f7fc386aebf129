package serve

import "sync"

// jobQueue is the server's admission-controlled job queue: one FIFO per
// SLO class, drained in class-priority order, with every enqueue passing
// through the shared Admission core. It replaces the old buffered-channel
// queue, whose slots a job cancelled while queued kept occupying until a
// worker drained down to the tombstone — overcounting QueueDepth and
// returning ErrQueueFull for capacity that was only holding corpses. Here
// admission is purely logical: remove returns a cancelled job's capacity
// the moment it is finalized, so submit-cancel-submit at exact capacity
// admits the third job.
type jobQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // signalled on enqueue and close
	adm      *Admission
	fifo     [NumClasses][]*Job
	closed   bool
}

func newJobQueue(cfg AdmissionConfig) *jobQueue {
	q := &jobQueue{adm: NewAdmission(cfg)}
	q.nonEmpty.L = &q.mu
	return q
}

// tryEnqueue runs the admission check and, on Admit, appends the job to
// its class FIFO and wakes a worker. Never blocks.
func (q *jobQueue) tryEnqueue(j *Job) Decision {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := q.adm.Decide(j.class, j.client)
	if d != Admit {
		return d
	}
	j.inQueue = true
	q.fifo[j.class] = append(q.fifo[j.class], j)
	q.nonEmpty.Signal()
	return Admit
}

// dequeue blocks until a job is available or the queue is closed and
// empty (nil). Jobs come out in class-priority order, FIFO within a
// class; the dequeued job's admission charge is released here, so the
// reported queue depth is exactly the jobs a worker has not reached.
func (q *jobQueue) dequeue() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for c := Class(0); c < NumClasses; c++ {
			if len(q.fifo[c]) == 0 {
				continue
			}
			j := q.fifo[c][0]
			q.fifo[c][0] = nil // free the slot for GC before reslicing
			q.fifo[c] = q.fifo[c][1:]
			j.inQueue = false
			q.adm.Release(j.class, j.client)
			return j
		}
		if q.closed {
			return nil
		}
		q.nonEmpty.Wait()
	}
}

// remove takes a still-queued job out of its FIFO and releases its
// admission charge immediately — the tombstone fix. It reports false when
// the job already left the queue (a worker dequeued it first, or remove
// already ran), in which case nothing is charged twice.
func (q *jobQueue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.inQueue {
		return false
	}
	fifo := q.fifo[j.class]
	for i, cand := range fifo {
		if cand != j {
			continue
		}
		copy(fifo[i:], fifo[i+1:])
		fifo[len(fifo)-1] = nil
		q.fifo[j.class] = fifo[:len(fifo)-1]
		j.inQueue = false
		q.adm.Release(j.class, j.client)
		return true
	}
	// inQueue set but not found would mean the flag and the FIFO
	// disagree; clear the flag so the job cannot be charged again.
	j.inQueue = false
	return false
}

// close wakes every worker; once the FIFOs drain, dequeue returns nil and
// the workers exit. Idempotent.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// depth returns the total queued-job count.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.adm.Depth()
}

// depthByClass snapshots the per-class occupancy.
func (q *jobQueue) depthByClass() [NumClasses]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out [NumClasses]int
	for c := Class(0); c < NumClasses; c++ {
		out[c] = q.adm.DepthByClass(c)
	}
	return out
}

// clientDepths snapshots the per-client occupancy, keyed by client name.
func (q *jobQueue) clientDepths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int)
	for _, name := range q.adm.Clients() {
		out[name] = q.adm.ClientDepth(name)
	}
	return out
}
