// Fixture: enqueue paths that consult the request deadline — or document
// why the enqueued work is exempt from it.
package fixture

import (
	"time"

	"streamgpu/internal/server/qos"
)

func enqueueWithDeadline(s *qos.Sched, cost int, deadline time.Duration) {
	var expiry time.Time
	if deadline > 0 {
		expiry = time.Now().Add(deadline)
	}
	s.Enqueue(1, qos.Item{Cost: cost, Deadline: expiry, Run: func() {}})
}

// enqueueSetsField threads an expiry computed elsewhere; naming the Deadline
// field is consulting the decision.
func enqueueSetsField(s *qos.Sched, cost int, expiry time.Time) {
	s.Enqueue(1, qos.Item{Cost: cost, Deadline: expiry, Run: func() {}})
}

// enqueueExempt ships sealed archive bytes, which carry no deadline on
// purpose: they are already part of the session's stream and must reach the
// writer or the stream is corrupt.
func enqueueExempt(s *qos.Sched, cost int) {
	s.Enqueue(1, qos.Item{Cost: cost, Run: func() {}})
}

// otherQueue is not the scheduler; its Enqueue is none of our business.
type otherQueue struct{ items []int }

func (q *otherQueue) Enqueue(cost int) { q.items = append(q.items, cost) }

func enqueueElsewhere(q *otherQueue, cost int) {
	q.Enqueue(cost)
}
