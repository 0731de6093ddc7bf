// Package mpi mirrors the wire-frame decode path: a Message.Body read
// is attacker-controlled (the frame arrived from a remote peer), so
// sizes lifted from it must be bounded before they reach make.
package mpi

import (
	"encoding/binary"
	"io"
)

// MaxFrameFloats bounds any score slab a peer can ask us to allocate.
const MaxFrameFloats = 1 << 20

// firstChunk is the most a frame body allocates before its bytes arrive.
const firstChunk = 1 << 16

// Message is one wire frame from a peer rank.
type Message struct {
	Tag  uint32
	Body []byte
}

// DecodeScores trusts the length prefix straight off the wire: a
// hostile peer chooses the allocation size.
func DecodeScores(msg Message) []float32 {
	n := int(binary.LittleEndian.Uint32(msg.Body))
	return make([]float32, n) // want "untrusted wire frame bytes reaches allocation size"
}

// DecodeScoresChecked bounds the length prefix before allocating: clean.
func DecodeScoresChecked(msg Message) ([]float32, bool) {
	n := int(binary.LittleEndian.Uint32(msg.Body))
	if n < 0 || n > MaxFrameFloats {
		return nil, false
	}
	return make([]float32, n), true
}

// ReadBody fills an n-byte frame body chunk by chunk and sizes each chunk
// from the count the previous read returned: that count is raw input,
// reaching the allocation and the slice one loop iteration later.
func ReadBody(r io.Reader, n int) ([]byte, error) {
	var body []byte
	got := 0
	for got < n {
		body = append(body, make([]byte, min(n-got, max(got, firstChunk)))...) // want "untrusted raw input bytes reaches allocation size"
		m, err := io.ReadFull(r, body[got:])                                   // want "untrusted raw input bytes reaches slice bounds"
		got += m
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// ReadBodyChecked sizes each chunk from the bytes it already holds: clean.
func ReadBodyChecked(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, firstChunk))
	for len(body) < n {
		got := len(body)
		body = append(body, make([]byte, min(n-got, max(got, firstChunk)))...)
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}
