package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLocalCommBasic(t *testing.T) {
	c, err := NewLocalComm(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	master := c.Rank(0)
	w1 := c.Rank(1)
	if master.Rank() != 0 || master.Size() != 3 || w1.Rank() != 1 {
		t.Fatal("rank/size wrong")
	}
	if err := w1.Send(0, TagReady, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 1 || msg.Tag != TagReady || string(msg.Body) != "hi" {
		t.Fatalf("msg = %+v", msg)
	}
}

func TestLocalCommBodyCopied(t *testing.T) {
	c, _ := NewLocalComm(2, 4)
	buf := []byte("abc")
	if err := c.Rank(1).Send(0, TagTask, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	msg, _ := c.Rank(0).Recv()
	if string(msg.Body) != "abc" {
		t.Fatal("send must copy the body")
	}
}

func TestLocalCommInvalid(t *testing.T) {
	if _, err := NewLocalComm(0, 1); err == nil {
		t.Fatal("size 0 accepted")
	}
	c, _ := NewLocalComm(2, 1)
	if err := c.Rank(0).Send(5, TagTask, nil); err == nil {
		t.Fatal("send to bad rank accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad rank")
		}
	}()
	c.Rank(9)
}

func TestLocalCommCloseUnblocksRecv(t *testing.T) {
	c, _ := NewLocalComm(2, 1)
	ep := c.Rank(0)
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := ep.Recv()
		done <- err
	}()
	// The receiver is running; whether Close finds it parked in Recv or
	// beats it there, Recv must return ErrClosed.
	<-started
	ep.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestLocalCommConcurrentSenders(t *testing.T) {
	c, _ := NewLocalComm(5, 128)
	master := c.Rank(0)
	const per = 50
	var wg sync.WaitGroup
	for r := 1; r < 5; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := c.Rank(r)
			for i := 0; i < per; i++ {
				if err := ep.Send(0, TagResult, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	counts := map[int]int{}
	for i := 0; i < 4*per; i++ {
		msg, err := master.Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[msg.From]++
	}
	wg.Wait()
	for r := 1; r < 5; r++ {
		if counts[r] != per {
			t.Fatalf("rank %d delivered %d of %d", r, counts[r], per)
		}
	}
}

func TestTagString(t *testing.T) {
	for tag, want := range map[Tag]string{
		TagReady: "ready", TagTask: "task", TagResult: "result",
		TagStop: "stop", TagDisconnect: "disconnect", TagHeartbeat: "heartbeat",
		Tag(0): "Tag(0)", Tag(5): "Tag(5)", Tag(6): "Tag(6)", Tag(9): "Tag(9)",
		Tag(10): "Tag(10)", Tag(99): "Tag(99)",
	} {
		if tag.String() != want {
			t.Errorf("Tag %d String = %q, want %q", tag, tag.String(), want)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	const size = 4
	master, err := ListenMaster("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	workers := make([]*TCPWorker, 0, size-1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := dialWorker(context.Background(), master.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			workers = append(workers, w)
			mu.Unlock()
		}()
	}
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(workers) != size-1 {
		t.Fatalf("connected %d workers", len(workers))
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	ranks := map[int]bool{}
	for _, w := range workers {
		if w.Size() != size {
			t.Fatalf("worker size %d", w.Size())
		}
		ranks[w.Rank()] = true
	}
	if len(ranks) != size-1 {
		t.Fatalf("duplicate ranks: %v", ranks)
	}

	// Workers send; master replies individually.
	for _, w := range workers {
		if err := w.Send(0, TagReady, []byte(fmt.Sprintf("w%d", w.Rank()))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < size-1; i++ {
		msg, err := master.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Tag != TagReady {
			t.Fatalf("tag %v", msg.Tag)
		}
		want := fmt.Sprintf("w%d", msg.From)
		if string(msg.Body) != want {
			t.Fatalf("body %q, want %q (From must come from the connection)", msg.Body, want)
		}
		if err := master.Send(msg.From, TagTask, []byte{byte(msg.From)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workers {
		msg, err := w.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Tag != TagTask || int(msg.Body[0]) != w.Rank() {
			t.Fatalf("worker %d got %+v", w.Rank(), msg)
		}
	}
}

func TestTCPWorkerCannotSendToWorker(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	done := make(chan *TCPWorker, 1)
	go func() {
		w, _ := dialWorker(context.Background(), master.Addr())
		done <- w
	}()
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := <-done
	defer w.Close()
	if err := w.Send(1, TagTask, nil); err == nil {
		t.Fatal("worker-to-worker send accepted")
	}
	if err := master.Send(0, TagTask, nil); err == nil {
		t.Fatal("master self-send accepted")
	}
}

func TestListenMasterValidation(t *testing.T) {
	if _, err := ListenMaster("127.0.0.1:0", 1); err == nil {
		t.Fatal("size 1 accepted")
	}
}

func TestTCPMasterRankSize(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if master.Rank() != 0 || master.Size() != 2 {
		t.Fatalf("rank %d size %d", master.Rank(), master.Size())
	}
}

func TestTCPRecvAfterClose(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *TCPWorker, 1)
	go func() {
		w, _ := dialWorker(context.Background(), master.Addr())
		done <- w
	}()
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := <-done
	master.Close()
	if _, err := master.Recv(); err != ErrClosed {
		t.Fatalf("master recv after close: %v", err)
	}
	w.Close()
	if _, err := w.Recv(); err == nil {
		t.Fatal("worker recv after close succeeded")
	}
}

func TestDialWorkerNoServer(t *testing.T) {
	if _, err := dialWorker(context.Background(), "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPWorkerSeesDisconnectAsTag(t *testing.T) {
	// When a worker's connection breaks, the master's inbox receives a
	// TagDisconnect for that rank.
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	done := make(chan *TCPWorker, 1)
	go func() {
		w, _ := dialWorker(context.Background(), master.Addr())
		done <- w
	}()
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := <-done
	w.Close()
	msg, err := master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != TagDisconnect || msg.From != 1 {
		t.Fatalf("got %v from %d, want disconnect from 1", msg.Tag, msg.From)
	}
}

func TestFrameRejectsOversizedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[8:], 1<<31)
	buf.Write(hdr[:])
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 3, TagResult, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msg, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 3 || msg.Tag != TagResult || string(msg.Body) != "payload" {
		t.Fatalf("frame %+v", msg)
	}
}
