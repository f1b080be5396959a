package prune

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/fsio"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// The sidecar wire format is a flat little-endian layout: a fixed magic, the
// fingerprint, the shape scalars, then each array back to back in a fixed
// order, closed by a CRC32 (IEEE) of everything before it. Flat arrays keep
// Load a handful of large reads into pre-sized slices — mmap-friendly and
// free of per-element decoding — and the trailing checksum turns a torn
// write into a clean load error instead of a corrupt index.
const sidecarMagic = "KGPIVF1\n"

// Save writes the index to w in the sidecar format.
func (ix *Index) Save(w io.Writer) error {
	cw := &crcWriter{w: w, crc: crc32.NewIEEE()}
	bw := bufio.NewWriterSize(cw, 1<<20)

	bw.WriteString(sidecarMagic)
	writeU32(bw, uint32(len(ix.fingerprint)))
	bw.WriteString(ix.fingerprint)
	bw.WriteByte(byte(ix.geom))
	writeU32(bw, uint32(ix.dim))
	writeU32(bw, uint32(ix.qdim))
	writeU32(bw, uint32(ix.n))
	writeU32(bw, uint32(ix.cells))

	writeF32s(bw, ix.centroids.Data)
	writeF64s(bw, ix.radL2)
	writeF64s(bw, ix.radL1)
	writeI32s(bw, ix.cellStart)
	writeI32s(bw, ix.members)
	writeI8s(bw, ix.codes)
	if ix.geom == kge.SweepDot {
		writeF32s(bw, ix.scale)
		writeF32s(bw, ix.codeL1)
	} else {
		writeF64(bw, ix.gscale)
	}
	writeF64(bw, ix.maxRowL2)
	writeF64(bw, ix.maxRowL1)

	if err := bw.Flush(); err != nil {
		return fmt.Errorf("prune: save: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("prune: save: %w", err)
	}
	return nil
}

// Load reads an index previously written by Save, verifying the checksum.
func Load(r io.Reader) (*Index, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20), crc: crc32.NewIEEE()}

	magic := make([]byte, len(sidecarMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if string(magic) != sidecarMagic {
		return nil, fmt.Errorf("prune: load: bad magic %q", magic)
	}

	fplen, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if fplen > 1<<10 {
		return nil, fmt.Errorf("prune: load: implausible fingerprint length %d", fplen)
	}
	fp := make([]byte, fplen)
	if _, err := io.ReadFull(cr, fp); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	var geomByte [1]byte
	if _, err := io.ReadFull(cr, geomByte[:]); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}

	ix := &Index{fingerprint: string(fp), geom: kge.SweepGeometry(geomByte[0])}
	for _, dst := range []*int{&ix.dim, &ix.qdim, &ix.n, &ix.cells} {
		v, err := readU32(cr)
		if err != nil {
			return nil, fmt.Errorf("prune: load: %w", err)
		}
		*dst = int(v)
	}
	const maxSide = 1 << 28 // ~268M entities/cells: far past any supported graph
	if ix.dim <= 0 || ix.qdim < ix.dim || ix.n <= 0 || ix.cells <= 0 ||
		ix.n > maxSide || ix.cells > ix.n || ix.qdim > maxSide {
		return nil, fmt.Errorf("prune: load: implausible shape dim=%d qdim=%d n=%d cells=%d",
			ix.dim, ix.qdim, ix.n, ix.cells)
	}

	ix.centroids = vecmath.NewMatrix(ix.cells, ix.qdim)
	ix.radL2 = make([]float64, ix.cells)
	ix.radL1 = make([]float64, ix.cells)
	ix.cellStart = make([]int32, ix.cells+1)
	ix.members = make([]int32, ix.n)
	ix.codes = make([]int8, ix.n*ix.qdim)

	if err := readF32s(cr, ix.centroids.Data); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if err := readF64s(cr, ix.radL2); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if err := readF64s(cr, ix.radL1); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if err := readI32s(cr, ix.cellStart); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if err := readI32s(cr, ix.members); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if err := readI8s(cr, ix.codes); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if ix.geom == kge.SweepDot {
		ix.scale = make([]float32, ix.n)
		ix.codeL1 = make([]float32, ix.n)
		if err := readF32s(cr, ix.scale); err != nil {
			return nil, fmt.Errorf("prune: load: %w", err)
		}
		if err := readF32s(cr, ix.codeL1); err != nil {
			return nil, fmt.Errorf("prune: load: %w", err)
		}
	} else {
		if ix.gscale, err = readF64(cr); err != nil {
			return nil, fmt.Errorf("prune: load: %w", err)
		}
	}
	if ix.maxRowL2, err = readF64(cr); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	if ix.maxRowL1, err = readF64(cr); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}

	want := cr.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return nil, fmt.Errorf("prune: load: checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("prune: load: checksum mismatch (file %08x, computed %08x)", got, want)
	}

	if err := ix.validate(); err != nil {
		return nil, fmt.Errorf("prune: load: %w", err)
	}
	return ix, nil
}

// validate checks the structural invariants Load cannot express as shapes.
func (ix *Index) validate() error {
	if ix.cellStart[0] != 0 || int(ix.cellStart[ix.cells]) != ix.n {
		return fmt.Errorf("cell offsets do not cover the entity range")
	}
	for c := 0; c < ix.cells; c++ {
		if ix.cellStart[c+1] < ix.cellStart[c] {
			return fmt.Errorf("cell %d has negative extent", c)
		}
	}
	seen := make([]bool, ix.n)
	for _, o := range ix.members {
		if o < 0 || int(o) >= ix.n || seen[o] {
			return fmt.Errorf("members is not a permutation of entity ids")
		}
		seen[o] = true
	}
	return nil
}

// SaveFile writes the index to path with the shared durable-write discipline
// (internal/fsio): unique temp file, file fsync, atomic rename, directory
// fsync. The unique temp name makes concurrent savers of the same path safe
// (last rename wins with a complete file), and the fsyncs ensure a crash
// shortly after SaveFile returns cannot resurrect a stale or empty sidecar.
// Only bench/kgbench and tests call it.
func (ix *Index) SaveFile(path string) error {
	return fsio.WriteAtomic(path, func(f *os.File) error { return ix.Save(f) })
}

// LoadFile reads an index from path. Only bench/kgbench and tests call it.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

type crcWriter struct {
	w   io.Writer
	crc hash32
}

type hash32 interface {
	io.Writer
	Sum32() uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	return n, err
}

type crcReader struct {
	r   io.Reader
	crc hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

func writeU32(w io.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeF64(w io.Writer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.Write(b[:])
}

func readF64(r io.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func writeF32s(w *bufio.Writer, vs []float32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		w.Write(b[:])
	}
}

func readF32s(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

func writeF64s(w *bufio.Writer, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		w.Write(b[:])
	}
}

func readF64s(r io.Reader, dst []float64) error {
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

func writeI32s(w *bufio.Writer, vs []int32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		w.Write(b[:])
	}
}

func readI32s(r io.Reader, dst []int32) error {
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

func writeI8s(w *bufio.Writer, vs []int8) {
	for _, v := range vs {
		w.WriteByte(byte(v))
	}
}

func readI8s(r io.Reader, dst []int8) error {
	buf := make([]byte, len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = int8(buf[i])
	}
	return nil
}
