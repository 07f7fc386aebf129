package serve

import "sync"

// jobQueue is the server's job queue: one FIFO bounded by QueueDepth. A
// job cancelled while queued leaves it through remove the moment it is
// finalized, so its slot never sits as a tombstone until a worker reaches
// it: submit-cancel-submit at exact capacity admits the third job.
type jobQueue struct {
	mu       sync.Mutex // a leaf lock (see Server.mu)
	nonEmpty sync.Cond  // signalled on enqueue and close
	limit    int
	fifo     []*Job
	closed   bool
}

func newJobQueue(limit int) *jobQueue {
	q := &jobQueue{limit: limit}
	q.nonEmpty.L = &q.mu
	return q
}

// tryEnqueue appends the job and wakes a worker while the queue holds
// fewer than its limit, and reports whether it did. Never blocks.
func (q *jobQueue) tryEnqueue(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.fifo) >= q.limit {
		return false
	}
	j.inQueue = true
	q.fifo = append(q.fifo, j)
	q.nonEmpty.Signal()
	return true
}

// dequeue blocks until a job is available or the queue is closed and
// empty (nil). Jobs come out in submission order; the dequeued job leaves
// the count here, so the reported queue depth is exactly the jobs a worker
// has not reached.
func (q *jobQueue) dequeue() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.fifo) == 0 {
		if q.closed {
			return nil
		}
		q.nonEmpty.Wait()
	}
	j := q.fifo[0]
	q.fifo[0] = nil // free the slot for GC before reslicing
	q.fifo = q.fifo[1:]
	j.inQueue = false
	return j
}

// remove takes a still-queued job out of the FIFO, freeing its slot
// immediately — the tombstone fix. It reports false when the job already
// left the queue (a worker dequeued it first, or remove already ran).
func (q *jobQueue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.inQueue {
		return false
	}
	j.inQueue = false
	for i, cand := range q.fifo {
		if cand == j {
			copy(q.fifo[i:], q.fifo[i+1:])
			q.fifo[len(q.fifo)-1] = nil
			q.fifo = q.fifo[:len(q.fifo)-1]
			return true
		}
	}
	return false
}

// close wakes every worker; once the FIFO drains, dequeue returns nil and
// the workers exit. Idempotent.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// depth returns the queued-job count.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.fifo)
}
