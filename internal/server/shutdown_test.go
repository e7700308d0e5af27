package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShutdownConcurrentHonorsCtx is the regression test for a bug: a
// Shutdown call that arrived while another Shutdown was already draining
// blocked on the first call's completion with a naked receive, ignoring its
// own ctx — even though Shutdown documents that an expired ctx returns its
// error. The second caller must come back as soon as its ctx is done.
func TestShutdownConcurrentHonorsCtx(t *testing.T) {
	s := &Server{done: make(chan struct{}), draining: true}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	errc := make(chan error, 1)
	go func() { errc <- s.Shutdown(ctx) }()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown ignored its ctx while another Shutdown was draining")
	}
}
