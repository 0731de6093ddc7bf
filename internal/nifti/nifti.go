// Package nifti reads and writes NIfTI-1 volumes (.nii), the standard
// interchange format for fMRI data, and converts 4D time-series volumes
// into the analysis Dataset via brain masking. The paper's pipeline
// ingests "preprocessed fMRI data"; this package is that ingestion path
// for real-world files.
//
// Only the fields FCMA needs are interpreted: dimensions, datatype
// (uint8, int16, int32, float32, float64), pixdim (for TR), vox_offset,
// scl_slope/scl_inter scaling, and the magic. Both byte orders are
// accepted (detected from sizeof_hdr).
package nifti

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Header size and magic per the NIfTI-1 specification.
const (
	headerSize    = 348
	defaultOffset = 352
)

// Hard caps applied while parsing untrusted files. A corrupt or hostile
// header must not be able to drive allocation: every size is bounded
// before any buffer is sized from it.
const (
	// maxDim bounds each axis extent (the format's int16 dim fields top
	// out here anyway). Real acquisitions are a few hundred voxels per
	// axis; this leaves two orders of magnitude of headroom.
	maxDim = 1<<15 - 1
	// maxVoxels bounds the total element count (the float32 allocation
	// budget: 2^28 elements = 1 GiB of converted data).
	maxVoxels = 1 << 28
	// maxOffsetSkip bounds the header-to-data gap implied by vox_offset
	// (extensions live there; 16 MiB is far beyond any real extension).
	maxOffsetSkip = 16 << 20
)

// Datatype codes from the specification.
const (
	dtUint8   = 2
	dtInt16   = 4
	dtInt32   = 8
	dtFloat32 = 16
	dtFloat64 = 64
)

// Volume is a NIfTI volume with up to 4 dimensions, data converted to
// float32 with scl_slope/scl_inter applied.
type Volume struct {
	// Dim holds the extent of each dimension (x, y, z, t); trailing
	// dimensions of size 1 for lower-dimensional volumes.
	Dim [4]int
	// Pixdim holds grid spacings; Pixdim[3] is the TR in seconds for 4D
	// time series.
	Pixdim [4]float32
	// Data is x-fastest: Data[((t*nz+z)*ny+y)*nx+x].
	Data []float32
}

// NX, NY, NZ, NT return the per-axis extents.
func (v *Volume) NX() int { return v.Dim[0] }
func (v *Volume) NY() int { return v.Dim[1] }
func (v *Volume) NZ() int { return v.Dim[2] }
func (v *Volume) NT() int { return v.Dim[3] }

// VoxelsPerFrame returns nx·ny·nz.
func (v *Volume) VoxelsPerFrame() int { return v.Dim[0] * v.Dim[1] * v.Dim[2] }

// At returns the value at (x, y, z, t).
func (v *Volume) At(x, y, z, t int) float32 {
	return v.Data[((t*v.Dim[2]+z)*v.Dim[1]+y)*v.Dim[0]+x]
}

// Read parses a NIfTI-1 single file (.nii).
func Read(r io.Reader) (*Volume, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("nifti: reading header: %w", err)
	}
	var order binary.ByteOrder = binary.LittleEndian
	if binary.LittleEndian.Uint32(hdr[0:]) != headerSize {
		if binary.BigEndian.Uint32(hdr[0:]) != headerSize {
			return nil, fmt.Errorf("nifti: sizeof_hdr is %d in either byte order, want %d",
				binary.LittleEndian.Uint32(hdr[0:]), headerSize)
		}
		order = binary.BigEndian
	}
	if hdr[344] != 'n' || (hdr[345] != '+' && hdr[345] != 'i') || hdr[346] != '1' {
		return nil, fmt.Errorf("nifti: bad magic %q", hdr[344:348])
	}
	i16 := func(off int) int { return int(int16(order.Uint16(hdr[off:]))) }
	f32 := func(off int) float32 { return math.Float32frombits(order.Uint32(hdr[off:])) }

	ndim := i16(40)
	if ndim < 1 || ndim > 7 {
		return nil, fmt.Errorf("nifti: ndim %d out of range", ndim)
	}
	var vol Volume
	for i := 0; i < 4; i++ {
		vol.Dim[i] = 1
		if i < ndim {
			vol.Dim[i] = i16(40 + 2*(i+1))
			if vol.Dim[i] < 1 || vol.Dim[i] > maxDim {
				return nil, fmt.Errorf("nifti: dim[%d] = %d outside [1, %d]", i+1, vol.Dim[i], maxDim)
			}
		}
		vol.Pixdim[i] = f32(76 + 4*(i+1))
	}
	for i := 4; i < ndim; i++ {
		if extra := i16(40 + 2*(i+1)); extra > 1 {
			return nil, fmt.Errorf("nifti: %d-dimensional volumes unsupported", ndim)
		}
	}
	datatype := i16(70)
	width, err := datatypeWidth(datatype)
	if err != nil {
		return nil, err
	}
	// Cross-check the two places the header declares the element size: a
	// mismatch means a corrupt or hand-edited header, and trusting either
	// field alone would misparse the whole data section.
	if bitpix := i16(72); bitpix != 0 && bitpix != 8*width {
		return nil, fmt.Errorf("nifti: bitpix %d does not match datatype %d (want %d bits)",
			bitpix, datatype, 8*width)
	}
	slope := f32(112)
	inter := f32(116)
	if slope == 0 {
		slope = 1
	}
	offset := defaultOffset
	if rawOff := f32(108); !math.IsNaN(float64(rawOff)) && rawOff >= headerSize {
		if rawOff-headerSize > maxOffsetSkip {
			return nil, fmt.Errorf("nifti: vox_offset %g implies a %g-byte header gap (cap %d)",
				rawOff, rawOff-headerSize, maxOffsetSkip)
		}
		offset = int(rawOff)
	}
	// Skip the gap between header and data.
	if _, err := io.CopyN(io.Discard, br, int64(offset-headerSize)); err != nil {
		return nil, fmt.Errorf("nifti: skipping to vox_offset: %w", err)
	}

	// Dim entries are bounded by maxDim (2^15) so the product fits int64
	// without overflow; bound it before allocating.
	n64 := int64(vol.Dim[0]) * int64(vol.Dim[1]) * int64(vol.Dim[2]) * int64(vol.Dim[3])
	if n64 > maxVoxels {
		return nil, fmt.Errorf("nifti: volume %v declares %d voxels, allocation budget is %d",
			vol.Dim, n64, int64(maxVoxels))
	}
	n := int(n64)
	vol.Data = make([]float32, n)
	if err := readValues(br, order, datatype, slope, inter, vol.Data); err != nil {
		return nil, err
	}
	return &vol, nil
}

func datatypeWidth(datatype int) (int, error) {
	switch datatype {
	case dtUint8:
		return 1, nil
	case dtInt16:
		return 2, nil
	case dtInt32, dtFloat32:
		return 4, nil
	case dtFloat64:
		return 8, nil
	}
	return 0, fmt.Errorf("nifti: unsupported datatype %d", datatype)
}

func readValues(r io.Reader, order binary.ByteOrder, datatype int, slope, inter float32, dst []float32) error {
	width, err := datatypeWidth(datatype)
	if err != nil {
		return err
	}
	buf := make([]byte, 64*1024/width*width)
	i := 0
	for i < len(dst) {
		want := (len(dst) - i) * width
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return fmt.Errorf("nifti: reading voxel data at %d of %d: %w", i, len(dst), err)
		}
		for off := 0; off < want; off += width {
			var v float32
			switch datatype {
			case dtUint8:
				v = float32(buf[off])
			case dtInt16:
				v = float32(int16(order.Uint16(buf[off:])))
			case dtInt32:
				v = float32(int32(order.Uint32(buf[off:])))
			case dtFloat32:
				v = math.Float32frombits(order.Uint32(buf[off:]))
			case dtFloat64:
				v = float32(math.Float64frombits(order.Uint64(buf[off:])))
			}
			dst[i] = v*slope + inter
			i++
		}
	}
	return nil
}

// Write serializes vol as a little-endian float32 NIfTI-1 single file.
func Write(w io.Writer, vol *Volume) error {
	if len(vol.Data) != vol.Dim[0]*vol.Dim[1]*vol.Dim[2]*vol.Dim[3] {
		return fmt.Errorf("nifti: data length %d does not match dims %v", len(vol.Data), vol.Dim)
	}
	hdr := make([]byte, defaultOffset)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], headerSize)
	ndim := 4
	for ndim > 1 && vol.Dim[ndim-1] == 1 {
		ndim--
	}
	le.PutUint16(hdr[40:], uint16(ndim))
	for i := 0; i < 4; i++ {
		le.PutUint16(hdr[40+2*(i+1):], uint16(vol.Dim[i]))
		le.PutUint32(hdr[76+4*(i+1):], math.Float32bits(vol.Pixdim[i]))
	}
	le.PutUint16(hdr[70:], dtFloat32) // datatype
	le.PutUint16(hdr[72:], 32)        // bitpix
	le.PutUint32(hdr[108:], math.Float32bits(defaultOffset))
	le.PutUint32(hdr[112:], math.Float32bits(1)) // scl_slope
	copy(hdr[344:], "n+1\x00")
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var buf [4]byte
	for _, v := range vol.Data {
		le.PutUint32(buf[:], math.Float32bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
