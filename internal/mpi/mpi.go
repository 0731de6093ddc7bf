// Package mpi provides the minimal message-passing substrate FCMA's
// master–worker layer runs on, standing in for the Intel MPI runtime of
// the paper's cluster: ranked endpoints exchanging tagged, length-framed
// messages over either in-process channels or TCP.
package mpi

import (
	"errors"
	"fmt"
)

// Tag classifies a message within the FCMA protocol. The values are the
// wire's: 5 and 6 (dataset broadcast, error report) and 9 and 10 (metrics,
// spans) belonged to tags that are gone, and a frame carrying one is
// refused rather than misread.
type Tag uint32

const (
	// TagReady announces a worker is idle and wants a task.
	TagReady Tag = 1
	// TagTask carries a voxel-range assignment from master to worker.
	TagTask Tag = 2
	// TagResult carries a worker's one report on a task: its scores or its
	// error, with the worker's metrics snapshot and completed spans.
	TagResult Tag = 3
	// TagStop tells a worker to shut down.
	TagStop Tag = 4
	// TagDisconnect is injected by transports when a worker's connection
	// drops, letting the master reassign its outstanding work.
	TagDisconnect Tag = 7
	// TagHeartbeat is a periodic liveness beacon from worker to master; a
	// worker that stops heartbeating is presumed dead and its outstanding
	// task is requeued.
	TagHeartbeat Tag = 8
)

// tagNames names every tag this protocol version defines.
var tagNames = [...]string{
	TagReady: "ready", TagTask: "task", TagResult: "result", TagStop: "stop",
	TagDisconnect: "disconnect", TagHeartbeat: "heartbeat",
}

// validTag reports whether t is a tag this protocol version defines.
func validTag(t Tag) bool { return t < Tag(len(tagNames)) && tagNames[t] != "" }

// String implements fmt.Stringer.
func (t Tag) String() string {
	if validTag(t) {
		return tagNames[t]
	}
	return fmt.Sprintf("Tag(%d)", uint32(t))
}

// Message is one tagged payload between ranks.
type Message struct {
	// From is the sender's rank.
	From int
	// Tag classifies the payload.
	Tag Tag
	// Body is the serialized payload (encoding is the caller's contract).
	Body []byte
}

// Transport is a ranked endpoint in a fixed-size communicator. Rank 0 is
// the master by convention. Send is safe for concurrent use; Recv is not
// (FCMA's protocol has a single receive loop per rank).
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the communicator size.
	Size() int
	// Send delivers msg to rank `to`. The message's From field is set by
	// the transport.
	Send(to int, tag Tag, body []byte) error
	// Recv blocks for the next message from any rank.
	Recv() (Message, error)
	// Close releases the endpoint; pending Recv calls return an error.
	Close() error
}

// ErrClosed is returned by Recv after the transport closes.
var ErrClosed = errors.New("mpi: transport closed")
