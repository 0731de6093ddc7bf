package fmri

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"fcma/internal/tensor"
)

// Binary dataset format (little endian):
//
//	magic   [4]byte  "FCMA"
//	version uint32   (1 or 2)
//	voxels  uint32
//	time    uint32
//	subjects uint32
//	dimX, dimY, dimZ uint32   (version >= 2 only; 0,0,0 = no geometry)
//	nameLen uint32, name bytes
//	data    voxels*time float32 (row-major)
//
// Epoch labels travel separately in the text format the paper describes
// ("text files specifying the labeled time epochs"), one epoch per line:
//
//	<subject> <label> <start> <len>
//
// with '#' comments and blank lines ignored.

var magic = [4]byte{'F', 'C', 'M', 'A'}

const formatVersion = 2

// Parser hard caps: headers and epoch files are untrusted input, so
// every allocation they can request is bounded.
const (
	maxElements = 1 << 28 // activity matrix allocation budget (1 GiB of float32)
	maxEpochs   = 1 << 20 // epoch file line budget
	readChunk   = 1 << 14 // float32s readData takes per read (64 KiB)
	firstAlloc  = 1 << 22 // most a header alone can make readData allocate (16 MiB of float32)
)

// WriteData serializes the activity matrix portion of d to w.
func WriteData(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hdr := []uint32{formatVersion, uint32(d.Voxels()), uint32(d.TimePoints()), uint32(d.Subjects),
		uint32(d.Dims[0]), uint32(d.Dims[1]), uint32(d.Dims[2]), uint32(len(d.Name))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(d.Name); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for i := 0; i < d.Voxels(); i++ {
		for _, v := range d.Data.Row(i) {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read is the one dataset reader: the activity matrix from data (the
// WriteData format), the epoch labels from epochs (the WriteEpochs text),
// and the whole validated before anything is built on it.
func Read(data, epochs io.Reader) (*Dataset, error) {
	d, err := readData(data)
	if err != nil {
		return nil, err
	}
	return WithEpochs(d, epochs)
}

// WithEpochs is Read's second half, for activity that arrived in another
// container (a NIfTI volume): it parses the epoch label text into d.Epochs
// and returns d once it validates.
func WithEpochs(d *Dataset, epochs io.Reader) (*Dataset, error) {
	eps, err := readEpochs(epochs)
	if err != nil {
		return nil, err
	}
	d.Epochs = eps
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// readData deserializes an activity matrix written by WriteData. The
// returned dataset has no epochs; Read attaches them.
func readData(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("fmri: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("fmri: bad magic %q", m)
	}
	readWord := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	version, err := readWord()
	if err != nil {
		return nil, fmt.Errorf("fmri: reading header: %w", err)
	}
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("fmri: unsupported format version %d", version)
	}
	words := 4 // voxels, time, subjects, nameLen
	if version >= 2 {
		words = 7 // + dims
	}
	hdr := make([]uint32, words)
	for i := range hdr {
		if hdr[i], err = readWord(); err != nil {
			return nil, fmt.Errorf("fmri: reading header: %w", err)
		}
	}
	voxels, timePoints, subjects := int(hdr[0]), int(hdr[1]), int(hdr[2])
	var dims [3]int
	nameLen := int(hdr[3])
	if version >= 2 {
		dims = [3]int{int(hdr[3]), int(hdr[4]), int(hdr[5])}
		nameLen = int(hdr[6])
	}
	if voxels <= 0 || timePoints <= 0 || subjects <= 0 {
		return nil, fmt.Errorf("fmri: invalid dimensions %dx%d, %d subjects", voxels, timePoints, subjects)
	}
	// Allocation budget: the header is untrusted, so bound the matrix it
	// asks for before sizing anything from it (2^28 float32s = 1 GiB) —
	// each dimension first, so the product cannot wrap past the check.
	if voxels > maxElements || timePoints > maxElements || int64(voxels)*int64(timePoints) > maxElements {
		return nil, fmt.Errorf("fmri: header declares %dx%d = %d elements, budget is %d",
			voxels, timePoints, int64(voxels)*int64(timePoints), int64(maxElements))
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("fmri: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("fmri: reading name: %w", err)
	}
	// A matrix of up to firstAlloc values is one allocation; a larger one
	// doubles as its values arrive, so a header claiming the whole budget
	// costs its sender the bytes rather than the reader a gigabyte up front.
	total := voxels * timePoints
	vals := make([]float32, 0, min(total, firstAlloc))
	raw := make([]byte, 4*min(total, readChunk))
	for len(vals) < total {
		n := min(total-len(vals), readChunk)
		if _, err := io.ReadFull(br, raw[:4*n]); err != nil {
			return nil, fmt.Errorf("fmri: reading voxel %d: %w", len(vals)/timePoints, err)
		}
		if cap(vals)-len(vals) < n {
			vals = slices.Grow(vals, min(total-len(vals), max(len(vals), n)))
		}
		chunk := vals[len(vals) : len(vals)+n]
		for j := range chunk {
			chunk[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		vals = vals[:len(vals)+n]
	}
	return &Dataset{
		Name:     string(name),
		Data:     tensor.FromSlice(voxels, timePoints, vals),
		Subjects: subjects,
		Dims:     dims,
	}, nil
}

// WriteEpochs writes the epoch label text file for d to w.
func WriteEpochs(w io.Writer, epochs []Epoch) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# subject label start len")
	for _, e := range epochs {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Subject, e.Label, e.Start, e.Len); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readEpochs parses an epoch label text file.
func readEpochs(r io.Reader) ([]Epoch, error) {
	var out []Epoch
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("fmri: epoch file line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		var vals [4]int
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("fmri: epoch file line %d field %d: %w", lineNo, i+1, err)
			}
			vals[i] = v
		}
		switch {
		case vals[0] < 0:
			return nil, fmt.Errorf("fmri: epoch file line %d: negative subject %d", lineNo, vals[0])
		case vals[2] < 0:
			return nil, fmt.Errorf("fmri: epoch file line %d: negative start %d", lineNo, vals[2])
		case vals[3] <= 0:
			return nil, fmt.Errorf("fmri: epoch file line %d: empty epoch (length %d)", lineNo, vals[3])
		}
		if len(out) >= maxEpochs {
			return nil, fmt.Errorf("fmri: epoch file exceeds %d epochs", maxEpochs)
		}
		out = append(out, Epoch{Subject: vals[0], Label: vals[1], Start: vals[2], Len: vals[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fmri: epoch file contains no epochs")
	}
	return out, nil
}
