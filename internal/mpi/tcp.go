package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fcma/internal/retry"
	"fcma/internal/safe"
)

// TCP wire format per message:
//
//	from uint32 | tag uint32 | bodyLen uint32 | body bytes
//
// all little endian. The master (rank 0) listens; workers dial in and are
// assigned ranks 1..n in connection order with a one-word handshake telling
// each worker its rank and the communicator size at join time. The master
// keeps accepting for the lifetime of the run, so workers can join late or
// reconnect after a crash (a reconnecting worker gets a fresh rank; its old
// rank stays dead).

// maxBody caps a frame body well below anything the protocol legitimately
// sends (task assignments and per-task score batches are KBs); a corrupt
// or hostile length header must not be able to OOM the master.
const maxBody = 64 << 20

func writeFrame(w io.Writer, from int, tag Tag, body []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(from))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func readFrame(r io.Reader) (Message, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	tag := Tag(binary.LittleEndian.Uint32(hdr[4:]))
	if !validTag(tag) {
		return Message{}, fmt.Errorf("mpi: frame carries unknown tag %d", uint32(tag))
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > maxBody {
		return Message{}, fmt.Errorf("mpi: frame body of %d bytes exceeds %d byte limit", n, maxBody)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return Message{}, err
	}
	return Message{
		From: int(binary.LittleEndian.Uint32(hdr[0:])),
		Tag:  tag,
		Body: body,
	}, nil
}

// firstBodyAlloc is the most readBody allocates before a byte of body has
// arrived: the protocol's frames (task assignments, per-task score
// batches) fit in it, so they still cost one allocation.
const firstBodyAlloc = 64 << 10

// readBody reads exactly n body bytes into a buffer that doubles as the
// bytes arrive, so a header claiming maxBody costs its sender the bytes
// rather than every connection 64 MiB up front.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, firstBodyAlloc))
	for len(body) < n {
		got := len(body)
		body = append(body, make([]byte, min(n-got, max(got, firstBodyAlloc)))...)
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}

// tcpPeer is one worker connection as the master sees it.
type tcpPeer struct {
	conn net.Conn
	w    *bufio.Writer
	mu   sync.Mutex // serializes writes to this peer
}

// TCPMaster is rank 0 of a TCP communicator: it accepts worker connections
// and relays the protocol. Workers can only talk to the master (FCMA's
// protocol is strictly master–worker, as is the paper's). After the initial
// quorum joins, the listener stays open so workers can join late or rejoin
// after a crash; each new connection gets the next unused rank and the
// communicator grows.
type TCPMaster struct {
	ln            net.Listener
	expect        int // initial communicator size AcceptCtx waits for
	acceptTimeout time.Duration

	mu       sync.Mutex
	nextRank int // next rank to assign; ranks of dead workers are not reused
	peers    map[int]*tcpPeer

	inbox  chan Message
	closed chan struct{}
	once   sync.Once
}

// ListenMaster starts a master on addr expecting size-1 workers to join
// initially. It returns once the listener is live; call AcceptCtx to wait
// for the initial quorum.
func ListenMaster(addr string, size int) (*TCPMaster, error) {
	if size < 2 {
		return nil, fmt.Errorf("mpi: TCP communicator needs size >= 2, got %d", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPMaster{
		ln:       ln,
		expect:   size,
		nextRank: 1,
		peers:    make(map[int]*tcpPeer),
		inbox:    make(chan Message, 256),
		closed:   make(chan struct{}),
	}, nil
}

// Addr returns the listen address (useful with ":0").
func (m *TCPMaster) Addr() string { return m.ln.Addr().String() }

// SetAcceptTimeout bounds how long AcceptCtx waits for the initial quorum.
// Zero (the default) waits forever. Must be called before AcceptCtx.
func (m *TCPMaster) SetAcceptTimeout(d time.Duration) { m.acceptTimeout = d }

// AcceptCtx blocks until the initial size-1 workers have joined, then keeps
// accepting in the background so late joiners and crashed workers can
// (re)join for the lifetime of the run. If an accept timeout is set and the
// quorum does not form in time, it reports how many ranks joined.
// Cancelling ctx interrupts the wait for the initial quorum promptly (the
// blocked Accept is kicked via a listener deadline) and returns ctx's
// error, so SIGINT during cluster bring-up does not hang on workers that
// will never dial.
func (m *TCPMaster) AcceptCtx(ctx context.Context) error {
	var deadline time.Time
	if m.acceptTimeout > 0 {
		deadline = time.Now().Add(m.acceptTimeout)
	}
	tl, _ := m.ln.(*net.TCPListener)
	if tl != nil {
		// On cancellation, force the pending Accept to fail with a timeout
		// by moving the deadline into the past.
		stop := context.AfterFunc(ctx, func() {
			tl.SetDeadline(time.Unix(1, 0))
		})
		defer stop()
	}
	for r := 1; r < m.expect; r++ {
		if !deadline.IsZero() && tl != nil {
			if err := tl.SetDeadline(deadline); err != nil {
				return err
			}
			// The line above can overwrite the past deadline a concurrent
			// cancellation just set; re-arm it if ctx is already done.
			if ctx.Err() != nil {
				tl.SetDeadline(time.Unix(1, 0))
			}
		}
		conn, err := m.ln.Accept()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("mpi: accept interrupted with %d of %d workers joined: %w",
					r-1, m.expect-1, cerr)
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return fmt.Errorf("mpi: accept deadline %v expired with %d of %d workers joined",
					m.acceptTimeout, r-1, m.expect-1)
			}
			return fmt.Errorf("mpi: accepting rank %d: %w", r, err)
		}
		if err := m.admit(conn); err != nil {
			return err
		}
	}
	if tl != nil {
		tl.SetDeadline(time.Time{})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	safe.Go("mpi/accept", func() error { m.acceptLoop(); return nil }, nil)
	return nil
}

// acceptLoop admits late joiners and rejoining workers until Close.
func (m *TCPMaster) acceptLoop() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// A failed handshake only loses the one connection.
		_ = m.admit(conn)
	}
}

// admit assigns the next rank to conn, completes the handshake, and starts
// its receive pump.
func (m *TCPMaster) admit(conn net.Conn) error {
	m.mu.Lock()
	rank := m.nextRank
	m.nextRank++
	size := m.sizeLocked()
	peer := &tcpPeer{conn: conn, w: bufio.NewWriter(conn)}
	m.peers[rank] = peer
	m.mu.Unlock()

	// Handshake: tell the worker its rank and the communicator size as of
	// its join.
	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[0:], uint32(rank))
	binary.LittleEndian.PutUint32(hs[4:], uint32(size))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		m.mu.Lock()
		delete(m.peers, rank)
		m.mu.Unlock()
		return fmt.Errorf("mpi: handshake with rank %d: %w", rank, err)
	}
	safe.Go("mpi/pump", func() error { m.pump(rank, conn); return nil }, nil)
	return nil
}

func (m *TCPMaster) pump(rank int, conn net.Conn) {
	br := bufio.NewReader(conn)
	defer func() {
		// Surface the disconnect so the master can reassign outstanding
		// work instead of hanging. After Close nobody is listening.
		select {
		case <-m.closed:
			return
		default:
		}
		select {
		case m.inbox <- Message{From: rank, Tag: TagDisconnect}:
		case <-m.closed:
		}
	}()
	for {
		msg, err := readFrame(br)
		if err != nil {
			return // connection closed, broken, or sent a corrupt frame
		}
		msg.From = rank // trust connection identity, not the frame header
		select {
		case m.inbox <- msg:
		case <-m.closed:
			return
		}
	}
}

// Rank implements Transport.
func (m *TCPMaster) Rank() int { return 0 }

// Size implements Transport: the expected initial size until the quorum
// forms, growing as late workers join beyond it.
func (m *TCPMaster) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sizeLocked()
}

func (m *TCPMaster) sizeLocked() int {
	if m.nextRank < m.expect {
		return m.expect
	}
	return m.nextRank
}

// Send implements Transport.
func (m *TCPMaster) Send(to int, tag Tag, body []byte) error {
	m.mu.Lock()
	peer := m.peers[to]
	m.mu.Unlock()
	if to <= 0 || peer == nil {
		return fmt.Errorf("mpi: master send to invalid rank %d", to)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if err := writeFrame(peer.w, 0, tag, body); err != nil {
		return err
	}
	return peer.w.Flush()
}

// Recv implements Transport.
func (m *TCPMaster) Recv() (Message, error) {
	select {
	case <-m.closed:
		return Message{}, ErrClosed
	default:
	}
	select {
	case msg := <-m.inbox:
		return msg, nil
	case <-m.closed:
		return Message{}, ErrClosed
	}
}

// Close implements Transport.
func (m *TCPMaster) Close() error {
	m.once.Do(func() {
		close(m.closed)
		m.ln.Close()
		m.mu.Lock()
		for _, p := range m.peers {
			p.conn.Close()
		}
		m.mu.Unlock()
	})
	return nil
}

// TCPWorker is a worker rank connected to a TCP master.
type TCPWorker struct {
	conn   net.Conn
	w      *bufio.Writer
	r      *bufio.Reader
	wmu    sync.Mutex
	rank   int
	size   int
	closed chan struct{}
	once   sync.Once
}

// dialWorker connects to the master at addr and completes the rank
// handshake, honoring ctx for both (a master that accepts but never
// handshakes must not strand a cancelled worker).
func dialWorker(ctx context.Context, addr string) (*TCPWorker, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Unix(1, 0))
	})
	defer stop()
	var hs [8]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("mpi: handshake: %w", cerr)
		}
		return nil, fmt.Errorf("mpi: handshake: %w", err)
	}
	// Clear any deadline a just-fired cancellation may have left; the
	// handshake won the race, so the connection is live and usable.
	conn.SetReadDeadline(time.Time{})
	return &TCPWorker{
		conn:   conn,
		w:      bufio.NewWriter(conn),
		r:      bufio.NewReader(conn),
		rank:   int(binary.LittleEndian.Uint32(hs[0:])),
		size:   int(binary.LittleEndian.Uint32(hs[4:])),
		closed: make(chan struct{}),
	}, nil
}

// DialWorkerRetryCtx is dialWorker under the shared retry policy's
// exponential backoff and jitter: it keeps redialing through transient
// refusals (master not yet up, network blip, master restarting) until the
// attempt budget is spent. Cancelling ctx interrupts both the dial in
// flight and the backoff sleep between attempts, so SIGINT during a
// reconnect storm exits promptly instead of sleeping out the remaining
// budget.
func DialWorkerRetryCtx(ctx context.Context, addr string, p retry.Policy) (*TCPWorker, error) {
	var w *TCPWorker
	err := retry.Do(ctx, p, func(ctx context.Context, _ int) error {
		var derr error
		w, derr = dialWorker(ctx, addr)
		return derr
	})
	if err != nil {
		// retry's errors read "failed after N attempts: ..." and "canceled
		// after N attempts: ...", and unwrap to the last dial or ctx error.
		return nil, fmt.Errorf("mpi: dialing %s %w", addr, err)
	}
	return w, nil
}

// Rank implements Transport.
func (t *TCPWorker) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCPWorker) Size() int { return t.size }

// Send implements Transport. Workers may only send to the master.
func (t *TCPWorker) Send(to int, tag Tag, body []byte) error {
	if to != 0 {
		return fmt.Errorf("mpi: worker can only send to master, not rank %d", to)
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if err := writeFrame(t.w, t.rank, tag, body); err != nil {
		return err
	}
	return t.w.Flush()
}

// Recv implements Transport.
func (t *TCPWorker) Recv() (Message, error) {
	msg, err := readFrame(t.r)
	if err != nil {
		select {
		case <-t.closed:
			return Message{}, ErrClosed
		default:
			return Message{}, err
		}
	}
	msg.From = 0
	return msg, nil
}

// Close implements Transport.
func (t *TCPWorker) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.conn.Close()
	})
	return nil
}

var (
	_ Transport = (*TCPMaster)(nil)
	_ Transport = (*TCPWorker)(nil)
)
