package mpi

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"fcma/internal/retry"
)

// TestDialWorkerRetryCtxCancelDuringBackoff: cancellation mid-backoff
// returns promptly instead of sleeping out the remaining attempt budget.
func TestDialWorkerRetryCtxCancelDuringBackoff(t *testing.T) {
	// Every attempt reaches a listener that hangs up before the handshake,
	// so the dialer spends its life failing and backing off.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	turnedAway := make(chan struct{}, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
			select {
			case turnedAway <- struct{}{}:
			default:
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := DialWorkerRetryCtx(ctx, ln.Addr().String(), retry.Policy{
			Attempts: 1000, BaseDelay: time.Second, MaxDelay: time.Second, Seed: 7,
		})
		done <- err
	}()
	<-turnedAway // the first attempt is lost; a second of backoff is what is left to interrupt
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled retry dial returned %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("cancelled retry dial took %v; the backoff sleep outlived ctx", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled retry dial still blocked after 2s")
	}
}

// TestDialWorkerRetryCtxPreCancelled proves an already-dead context never
// even burns the first dial's network timeout.
func TestDialWorkerRetryCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DialWorkerRetryCtx(ctx, "127.0.0.1:1", retry.Policy{Attempts: 5, BaseDelay: time.Second, Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled retry dial returned %v, want context.Canceled", err)
	}
}

// TestAcceptCtxCancelUnblocksQuorumWait proves the master's initial-quorum
// wait honors ctx: cancellation kicks the blocked Accept and surfaces
// context.Canceled instead of hanging for workers that will never come.
func TestAcceptCtxCancelUnblocksQuorumWait(t *testing.T) {
	m, err := ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.AcceptCtx(ctx) }()
	// One of the two expected workers joins: once its handshake is through,
	// the master is waiting in Accept for a second that never dials.
	w, err := dialWorker(context.Background(), m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled AcceptCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled AcceptCtx still blocked after 2s")
	}
}

// TestAcceptCtxCancelRacesDeadlineReset covers the deadline-overwrite
// window: with an accept timeout configured, each loop iteration re-arms
// the listener deadline and must not erase a concurrent cancellation.
func TestAcceptCtxCancelRacesDeadlineReset(t *testing.T) {
	m, err := ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetAcceptTimeout(30 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead when AcceptCtx re-arms the deadline
	if err := m.AcceptCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcceptCtx with dead ctx returned %v, want context.Canceled", err)
	}
}

// TestAcceptCtxStillAcceptsQuorum proves the happy path is untouched: with
// a live context the quorum forms and the background accept loop starts.
func TestAcceptCtxStillAcceptsQuorum(t *testing.T) {
	m, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan error, 1)
	go func() { done <- m.AcceptCtx(context.Background()) }()
	w, err := dialWorker(context.Background(), m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := <-done; err != nil {
		t.Fatalf("AcceptCtx with live ctx: %v", err)
	}
	// The background loop must still admit late joiners.
	late, err := dialWorker(context.Background(), m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if late.Rank() != 2 {
		t.Fatalf("late joiner got rank %d, want 2", late.Rank())
	}
}

// TestDialWorkerCtxCancelInterruptsDial proves the dial itself (not just
// the backoff) is cancellable.
func TestDialWorkerCtxCancelInterruptsDial(t *testing.T) {
	// A listener that accepts and then says nothing: the dial hangs in the
	// handshake read, which is where cancellation must reach.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		w, err := dialWorker(ctx, ln.Addr().String())
		if w != nil {
			w.Close()
		}
		done <- err
	}()
	// Once the listener hands over the connection the dialer is connected
	// and reading a handshake that never comes.
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dial to a never-handshaking master succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled dialWorker still blocked after 2s")
	}
}
