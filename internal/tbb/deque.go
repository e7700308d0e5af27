// Package tbb is a Threading-Building-Blocks-style task runtime: a
// work-stealing scheduler (Chase–Lev deques, one per worker), task groups,
// and a token-throttled Pipeline with serial-in-order and parallel filters
// — the abstractions the paper uses for its TBB implementations, including the max_number_of_live_tokens knob
// it had to tune (38 tokens CPU-only, 50 with GPUs).
package tbb

import (
	"sync/atomic"
)

// Task is a unit of work. Tasks run on scheduler workers; w gives access to
// the executing worker so tasks can spawn children into the local deque.
type Task func(w *Worker)

// taskCell is a submitted task: the function, and the group it belongs to
// (nil for none). The deque's slots are atomic pointers to cells.
type taskCell struct {
	fn Task
	g  *Group
}

// deque is a fixed-capacity Chase–Lev work-stealing deque. The owner pushes
// and pops at the bottom; thieves steal from the top with a CAS. Slots are
// atomic pointers, which (with Go's sequentially-consistent atomics) makes
// the classic algorithm safe without unsafe.Pointer tricks.
type deque struct {
	buf    []atomic.Pointer[taskCell]
	mask   int64
	top    atomic.Int64 // next steal position
	bottom atomic.Int64 // next push position (owner-only writes)
}

func newDeque(capacity int) *deque {
	c := int64(1)
	for c < int64(capacity) {
		c <<= 1
	}
	return &deque{buf: make([]atomic.Pointer[taskCell], c), mask: c - 1}
}

// pushBottom appends a task at the owner end. Returns false when full (the
// caller falls back to the scheduler's shared inbox).
func (d *deque) pushBottom(t taskCell) bool {
	b := d.bottom.Load()
	top := d.top.Load()
	if b-top >= int64(len(d.buf)) {
		return false
	}
	d.buf[b&d.mask].Store(&t)
	d.bottom.Store(b + 1)
	return true
}

// popBottom removes the most recently pushed task (LIFO for locality). Only
// the owner may call it.
func (d *deque) popBottom() (taskCell, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Empty: restore.
		d.bottom.Store(t)
		return taskCell{}, false
	}
	cell := d.buf[b&d.mask].Load()
	if b > t {
		return *cell, true
	}
	// Last element: race against thieves for it.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return taskCell{}, false
	}
	return *cell, true
}

// steal removes the oldest task (FIFO from the thief's view). Any goroutine
// may call it.
func (d *deque) steal() (taskCell, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return taskCell{}, false
		}
		cell := d.buf[t&d.mask].Load()
		if cell == nil {
			// Slot not yet published; treat as empty this round.
			return taskCell{}, false
		}
		if d.top.CompareAndSwap(t, t+1) {
			return *cell, true
		}
		// Lost the race; retry.
	}
}

// size is an approximate element count.
func (d *deque) size() int64 {
	s := d.bottom.Load() - d.top.Load()
	if s < 0 {
		return 0
	}
	return s
}
