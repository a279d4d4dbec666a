package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
	"mbplib/internal/tracegen"
)

// traceFile is one trace the benchmark materialised, with what it knows of
// it independently of the program's readers.
type traceFile struct {
	spec         tracegen.Spec
	path         string
	branches     uint64
	instructions uint64
	sbbtBytes    int64    // bytes of the SBBT stream handed to the compressor
	storedBytes  int64    // bytes on disk
	sbbtSum      [32]byte // SHA-256 of the SBBT stream handed to the compressor
}

// setupClock splits set-up time by layer. generate is time inside the
// trace generator, encode time inside the compression writer (Write and
// Close, which waits for the parallel chunk compressors), hash the
// benchmark's own checksumming, which set-up time excludes.
type setupClock struct {
	generate, encode, hash time.Duration
}

// writeTrace renders spec as an SBBT trace at path, compressed by the
// container the extension names, the way mbpgen does it: tracegen's event
// stream into the sbbt writer into the compress writer. Seekable (.mlzs)
// containers are packet-aligned and compressed on GOMAXPROCS workers, as
// `mbpgen -formats mlzs -compress-j N` writes them.
func writeTrace(path string, spec tracegen.Spec, clk *setupClock) (traceFile, error) {
	tf := traceFile{spec: spec, path: path}
	t := time.Now()
	instr, branches, err := tracegen.Totals(spec)
	clk.generate += time.Since(t)
	if err != nil {
		return tf, err
	}
	tf.branches, tf.instructions = branches, instr
	var f *compress.File
	switch compress.FormatForPath(path) {
	case compress.FormatMLZS:
		f, err = compress.CreateMLZSFile(path, compress.MLZSOptions{
			Level:       compress.LevelBest,
			Workers:     runtime.GOMAXPROCS(0),
			Align:       sbbt.PacketSize,
			AlignOffset: sbbt.HeaderSize,
		})
	default:
		f, err = compress.CreateFile(path, compress.LevelBest)
	}
	if err != nil {
		return tf, err
	}
	tap := &encodeTap{w: f, h: sha256.New(), clk: clk}
	w, err := sbbt.NewWriter(tap, instr, branches)
	if err != nil {
		f.Close()
		return tf, err
	}
	g, err := tracegen.New(spec)
	if err != nil {
		f.Close()
		return tf, err
	}
	buf := make([]bp.Event, 4096)
	for {
		t := time.Now()
		n, rerr := g.ReadBatch(buf)
		clk.generate += time.Since(t)
		for i := range buf[:n] {
			if err := w.Write(buf[i]); err != nil {
				f.Close()
				return tf, err
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			f.Close()
			return tf, rerr
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return tf, err
	}
	t = time.Now()
	err = f.Close()
	clk.encode += time.Since(t)
	if err != nil {
		return tf, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return tf, err
	}
	tf.sbbtBytes, tf.storedBytes = tap.n, fi.Size()
	copy(tf.sbbtSum[:], tap.h.Sum(nil))
	return tf, nil
}

// encodeTap sits between the sbbt writer and the compressor: it times the
// compressor and checksums the exact bytes it is given.
type encodeTap struct {
	w   io.Writer
	h   hash.Hash
	n   int64
	clk *setupClock
}

func (e *encodeTap) Write(p []byte) (int, error) {
	t := time.Now()
	e.h.Write(p)
	e.n += int64(len(p))
	t2 := time.Now()
	n, err := e.w.Write(p)
	e.clk.hash += t2.Sub(t)
	e.clk.encode += time.Since(t2)
	return n, err
}

// verifyTrace decompresses the stored trace with the program's reader and
// checks it is byte-equal to the SBBT stream its writer was given.
func verifyTrace(tf traceFile) error {
	f, err := compress.OpenFile(tf.path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("%s: decompressing: %w", tf.path, err)
	}
	if n != tf.sbbtBytes || !bytes.Equal(h.Sum(nil), tf.sbbtSum[:]) {
		return fmt.Errorf("%s: decompresses to %d bytes that differ from the %d-byte SBBT stream written", tf.path, n, tf.sbbtBytes)
	}
	return nil
}

// traceStats sums the sizes of a workload's traces.
func traceStats(tfs []traceFile) (branches uint64, sbbtBytes, storedBytes int64) {
	for _, tf := range tfs {
		branches += tf.branches
		sbbtBytes += tf.sbbtBytes
		storedBytes += tf.storedBytes
	}
	return
}

// reseed derives a trace spec's seed from the benchmark seed, so every
// --seed gives different (and for one seed, identical) traces.
func reseed(spec tracegen.Spec, seed uint64) tracegen.Spec {
	spec.Seed ^= mix(seed + 0x9e3779b97f4a7c15)
	return spec
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
