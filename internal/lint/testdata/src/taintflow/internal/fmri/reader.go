// Package fmri mirrors the binary dataset reader: bytes lifted from an
// untrusted file must be bounds-checked before they index or slice
// anything.
package fmri

import (
	"encoding/binary"
	"io"
)

// LookupVoxel reads a voxel id from the stream and uses it as an index
// without checking it against the table.
func LookupVoxel(r io.Reader, table []float32) (float32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	idx := int(binary.LittleEndian.Uint32(buf[:]))
	return table[idx], nil // want "untrusted raw input bytes reaches slice index"
}

// LookupVoxelChecked rejects out-of-range ids before indexing: clean.
func LookupVoxelChecked(r io.Reader, table []float32) (float32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	idx := int(binary.LittleEndian.Uint32(buf[:]))
	if idx < 0 || idx >= len(table) {
		return 0, io.ErrUnexpectedEOF
	}
	return table[idx], nil
}

// Window slices the data with a bound read straight from the header.
func Window(r io.Reader, data []float32) ([]float32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, err
	}
	end := int(binary.LittleEndian.Uint32(buf[:]))
	return data[:end], nil // want "untrusted raw input bytes reaches slice bounds"
}

// maxName bounds a header-declared name length.
const maxName = 1 << 16

// ReadName reads the header through a local closure, as the dataset reader
// does, and sizes the name buffer with the word it returns, unchecked.
func ReadName(r io.Reader) ([]byte, error) {
	readWord := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	n, err := readWord()
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want "untrusted raw input bytes reaches allocation size"
}

// ReadNameChecked bounds the word before sizing anything with it: clean.
func ReadNameChecked(r io.Reader) ([]byte, error) {
	readWord := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	n, err := readWord()
	if err != nil {
		return nil, err
	}
	if n > maxName {
		return nil, io.ErrUnexpectedEOF
	}
	return make([]byte, n), nil
}

// fill reads raw words into dst: the read happens here, and the caller
// sees its bytes through the slice it passed in.
func fill(r io.Reader, dst []uint32) error {
	return binary.Read(r, binary.LittleEndian, dst)
}

// Offset indexes the table with a word fill wrote into hdr, unchecked.
func Offset(r io.Reader, table []float32) (float32, error) {
	hdr := make([]uint32, 2)
	if err := fill(r, hdr); err != nil {
		return 0, err
	}
	return table[hdr[0]], nil // want "untrusted raw input bytes reaches slice index"
}

// OffsetChecked rejects a word outside the table first: clean.
func OffsetChecked(r io.Reader, table []float32) (float32, error) {
	hdr := make([]uint32, 2)
	if err := fill(r, hdr); err != nil {
		return 0, err
	}
	if hdr[0] >= uint32(len(table)) {
		return 0, io.ErrUnexpectedEOF
	}
	return table[hdr[0]], nil
}
