package service

import "container/list"

// fairQueue is the scheduler's pending-job structure: one FIFO per
// tenant, dequeued by fair queueing over virtual time. Each tenant's
// queue keeps strict FIFO order (so the single-tenant daemon behaves
// exactly like the plain list it replaced, crash requeue at the front
// included), while across tenants every pop charges the served tenant
// one unit of virtual time and the next pop goes to the smallest vtime
// — so a tenant flooding the queue cannot starve one submitting at a
// trickle. Ties break on the tenant name, so dequeue order is
// deterministic for a fixed arrival order. All methods are called
// under the scheduler's mutex.
type fairQueue struct {
	size    int
	tenants map[string]*tenantQ
	// vclock is the virtual time of the most recent dequeue. A tenant
	// (re)activating from idle starts at the clock rather than its
	// stale vtime, so idle time banks no credit — fairness is over
	// backlogged tenants only, the classic start-time fairness rule.
	vclock int
}

type tenantQ struct {
	name  string
	jobs  *list.List // of *Job; Front is next out
	vtime int
}

func newFairQueue() *fairQueue {
	return &fairQueue{tenants: make(map[string]*tenantQ)}
}

// tq returns (creating if needed) the tenant's queue, applying the
// activation catch-up.
func (q *fairQueue) tq(tenant string) *tenantQ {
	tq, ok := q.tenants[tenant]
	if !ok {
		tq = &tenantQ{name: tenant, jobs: list.New(), vtime: q.vclock}
		q.tenants[tenant] = tq
	}
	return tq
}

// push appends the job to its tenant's FIFO.
func (q *fairQueue) push(j *Job) {
	j.qelem = q.tq(j.tenant).jobs.PushBack(j)
	q.size++
}

// pushFront requeues a job (crash retry) at the head of its tenant's
// line; it already paid its virtual time when first popped, so no new
// charge.
func (q *fairQueue) pushFront(j *Job) {
	j.qelem = q.tq(j.tenant).jobs.PushFront(j)
	q.size++
}

// pop removes and returns the next job under the fairness order, or
// nil when empty.
func (q *fairQueue) pop() *Job {
	var best *tenantQ
	for _, tq := range q.tenants {
		if best == nil || tq.vtime < best.vtime || (tq.vtime == best.vtime && tq.name < best.name) {
			best = tq
		}
	}
	if best == nil {
		return nil
	}
	el := best.jobs.Front()
	best.jobs.Remove(el)
	j := el.Value.(*Job)
	j.qelem = nil
	q.size--
	best.vtime++
	q.vclock = best.vtime
	if best.jobs.Len() == 0 {
		delete(q.tenants, best.name)
	}
	return j
}

// remove unlinks a still-queued job (cancellation); a job already
// popped (qelem nil) is a no-op.
func (q *fairQueue) remove(j *Job) {
	if j.qelem == nil {
		return
	}
	tq, ok := q.tenants[j.tenant]
	if !ok {
		return
	}
	tq.jobs.Remove(j.qelem)
	j.qelem = nil
	q.size--
	if tq.jobs.Len() == 0 {
		delete(q.tenants, j.tenant)
	}
}

func (q *fairQueue) len() int { return q.size }

// depths reports the per-tenant backlog, for /metrics.
func (q *fairQueue) depths() map[string]int {
	out := make(map[string]int, len(q.tenants))
	for name, tq := range q.tenants {
		out[name] = tq.jobs.Len()
	}
	return out
}
