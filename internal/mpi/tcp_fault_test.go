package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"fcma/internal/retry"
)

func TestAcceptTimeoutReportsJoinCount(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	master.SetAcceptTimeout(150 * time.Millisecond)
	// Only one of the two expected workers dials, and it stays connected
	// until the accept has given up.
	gaveUp := make(chan struct{})
	go func() {
		w, err := dialWorker(context.Background(), master.Addr())
		if err == nil {
			defer w.Close()
			<-gaveUp
		}
	}()
	err = master.AcceptCtx(context.Background())
	close(gaveUp)
	if err == nil {
		t.Fatal("Accept returned without the quorum")
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("error does not name the join count: %v", err)
	}
}

func TestMidFrameDisconnectSurfacesAsDisconnect(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var hs [8]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		t.Fatal(err)
	}
	// Header promises a 100-byte TagResult body, then the connection is
	// cut after 10 bytes — exactly a worker dying mid-send.
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(TagResult))
	binary.LittleEndian.PutUint32(hdr[8:], 100)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	msg, err := master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != TagDisconnect || msg.From != 1 {
		t.Fatalf("mid-frame cut surfaced as %v from %d, want disconnect from 1", msg.Tag, msg.From)
	}
}

func TestCorruptTagSurfacesAsDisconnect(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var hs [8]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[4:], 9999) // no such tag
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	msg, err := master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != TagDisconnect {
		t.Fatalf("corrupt frame surfaced as %v, want the sender dropped", msg.Tag)
	}
}

func TestLateJoinAndRejoinGetFreshRanks(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	first := make(chan *TCPWorker, 1)
	go func() {
		w, _ := dialWorker(context.Background(), master.Addr())
		first <- w
	}()
	if err := master.AcceptCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	w1 := <-first
	if w1 == nil {
		t.Fatal("first worker failed to join")
	}

	// A late joiner after the initial quorum gets the next rank and the
	// communicator grows.
	w2, err := dialWorker(context.Background(), master.Addr())
	if err != nil {
		t.Fatalf("late join rejected: %v", err)
	}
	defer w2.Close()
	if w2.Rank() != 2 {
		t.Fatalf("late joiner rank %d, want 2", w2.Rank())
	}
	if master.Size() != 3 {
		t.Fatalf("master size %d after late join, want 3", master.Size())
	}
	if err := w2.Send(0, TagReady, nil); err != nil {
		t.Fatal(err)
	}
	msg, err := master.Recv()
	if err != nil || msg.From != 2 || msg.Tag != TagReady {
		t.Fatalf("late joiner message %+v err %v", msg, err)
	}

	// A crashed worker reconnects and gets a fresh rank; its old rank is
	// reported dead, not reused.
	w1.Close()
	msg, err = master.Recv()
	if err != nil || msg.Tag != TagDisconnect || msg.From != 1 {
		t.Fatalf("crash notice %+v err %v", msg, err)
	}
	w3, err := dialWorker(context.Background(), master.Addr())
	if err != nil {
		t.Fatalf("rejoin rejected: %v", err)
	}
	defer w3.Close()
	if w3.Rank() != 3 {
		t.Fatalf("rejoined worker rank %d, want fresh rank 3", w3.Rank())
	}
	if err := master.Send(3, TagTask, []byte("t")); err != nil {
		t.Fatalf("send to rejoined rank: %v", err)
	}
	got, err := w3.Recv()
	if err != nil || string(got.Body) != "t" {
		t.Fatalf("rejoined worker recv %+v err %v", got, err)
	}
}

// An unknown tag is refused, and so is each retired one (data 5, error 6,
// metrics 9, spans 10): a rank of an older build is dropped, not misread.
func TestFrameRejectsUnknownTag(t *testing.T) {
	for _, tag := range []Tag{0, 5, 6, 9, 10, 99} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, 1, tag, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(&buf); err == nil {
			t.Fatalf("unknown tag %d accepted", uint32(tag))
		}
	}
}

// endlessBody serves hdr and then zero bytes for as long as it is read,
// counting every byte it hands out. It gives up one MiB past the header,
// so a reader that ignores the header's claim fails fast instead of
// pulling the whole claim through.
type endlessBody struct {
	hdr  []byte
	read int
}

func (e *endlessBody) Read(p []byte) (int, error) {
	if e.read >= len(e.hdr)+1<<20 {
		return 0, errors.New("endlessBody: read a MiB past the header")
	}
	var n int
	if e.read < len(e.hdr) {
		n = copy(p, e.hdr[e.read:])
	} else {
		n = min(len(p), len(e.hdr)+1<<20-e.read)
		clear(p[:n])
	}
	e.read += n
	return n, nil
}

// A header claiming one byte past maxBody is refused on its claim alone:
// the reader fails having taken the twelve header bytes and no body, even
// from a sender that would supply the whole claim.
func TestFrameBodyCapWellBelowGiB(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[4:], uint32(TagResult))
	binary.LittleEndian.PutUint32(hdr[8:], maxBody+1)
	src := &endlessBody{hdr: hdr[:]}
	if _, err := readFrame(src); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if src.read != len(hdr) {
		t.Fatalf("refusing a %d-byte claim read %d bytes, want the %d header bytes alone", maxBody+1, src.read, len(hdr))
	}
	if maxBody >= 1<<29 {
		t.Fatalf("maxBody %d leaves the master open to allocation abuse", maxBody)
	}
}

// A header is twelve bytes; the body it promises must be paid for in bytes
// received before it is paid for in memory.
func TestFrameHeaderAloneDoesNotAllocateItsClaim(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[4:], uint32(TagResult))
	binary.LittleEndian.PutUint32(hdr[8:], maxBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("header then EOF: err = %v, want io.EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte claim with no body allocated %d bytes, want under 1 MiB", maxBody, got)
	}
}

func TestFrameBodyLargerThanFirstAllocRoundTrips(t *testing.T) {
	body := make([]byte, 5*firstBodyAlloc+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, 2, TagResult, body); err != nil {
		t.Fatal(err)
	}
	// One byte at a time: every growth step sees a short read.
	msg, err := readFrame(iotest.OneByteReader(&buf))
	if err != nil || !bytes.Equal(msg.Body, body) {
		t.Fatalf("read %d of %d bytes, err %v", len(msg.Body), len(body), err)
	}
	if err := writeFrame(&buf, 2, TagResult, body); err != nil {
		t.Fatal(err)
	}
	buf.Truncate(buf.Len() - 1)
	if _, err := readFrame(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("body one byte short: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzReadFrame: arbitrary bytes either fail to decode or decode to a
// message with a protocol tag whose body is exactly as long as its header
// said and is the bytes that followed the header.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := writeFrame(&good, 3, TagResult, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:15])
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 4})
	f.Add([]byte{0, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		msg, err := readFrame(bytes.NewReader(p))
		if err != nil {
			return
		}
		if !validTag(msg.Tag) {
			t.Fatalf("accepted tag %d", uint32(msg.Tag))
		}
		if want := binary.LittleEndian.Uint32(p[8:]); uint32(len(msg.Body)) != want {
			t.Fatalf("body of %d bytes for a header claiming %d", len(msg.Body), want)
		}
		if !bytes.Equal(msg.Body, p[12:12+len(msg.Body)]) {
			t.Fatalf("body %x is not the bytes after the header", msg.Body)
		}
	})
}

func TestDialWorkerRetryEventuallyConnects(t *testing.T) {
	// Reserve an address, release it, and only start the master after the
	// first dial attempts have failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	masterUp := make(chan *TCPMaster, 1)
	go func() {
		// Simulated latency, not a wait for an event: the master comes up
		// 100 ms after the worker starts dialing. A scheduler that starts
		// it sooner only spends fewer of the 30 attempts.
		time.Sleep(100 * time.Millisecond)
		m, err := ListenMaster(addr, 2)
		if err != nil {
			masterUp <- nil
			return
		}
		masterUp <- m
		m.AcceptCtx(context.Background())
	}()
	w, err := DialWorkerRetryCtx(context.Background(), addr, retry.Policy{Attempts: 30, BaseDelay: 20 * time.Millisecond, Seed: 7})
	m := <-masterUp
	if m != nil {
		defer m.Close()
	}
	if err != nil {
		t.Fatalf("retry dial failed: %v", err)
	}
	defer w.Close()
	if w.Rank() != 1 {
		t.Fatalf("rank %d", w.Rank())
	}
}

func TestDialWorkerRetryExhaustsBudget(t *testing.T) {
	start := time.Now()
	_, err := DialWorkerRetryCtx(context.Background(), "127.0.0.1:1", retry.Policy{Attempts: 3, BaseDelay: time.Millisecond, Seed: 7})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not name the budget: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("backoff far exceeded configured delays")
	}
}
