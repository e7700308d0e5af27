// Fixture: handler paths that enqueue into the scheduler without ever
// consulting a deadline.
package fixture

import "streamgpu/internal/server/qos"

func enqueueBlind(s *qos.Sched, cost int) {
	s.Enqueue(1, qos.Item{Cost: cost, Run: func() {}}) // want `without consulting a deadline`
}

// stageAll fans a cost list out across tenant lanes.
func stageAll(s *qos.Sched, costs []int) {
	for i, c := range costs {
		s.Enqueue(uint32(i), qos.Item{Cost: c, Run: func() {}}) // want `without consulting a deadline`
	}
}

// enqueueFromClosure still flags: the closure runs under this function's
// contract and nothing here mentions the decision.
func enqueueFromClosure(s *qos.Sched, cost int) func() {
	return func() {
		s.Enqueue(1, qos.Item{Cost: cost, Run: func() {}}) // want `without consulting a deadline`
	}
}
