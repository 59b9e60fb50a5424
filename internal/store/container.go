package store

// The container every file this package writes shares: a magic naming the
// format and its major version, framed CRC32-checksummed sections, and an
// END sentinel.
//
//	container := magic | section... | END section
//	section   := nameLen uvarint | name | payloadLen uvarint | crc32 (4B LE) | payload
//
// A format (store, checkpoint, domain artifact) is a list of sections to
// write and a table of section decoders to read; framing, checksums,
// unknown-section skipping and the durable file replace live here once.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

const secEnd = "END"

// maxSectionSize bounds one section payload's length prefix.
const maxSectionSize = 1 << 31

// firstChunk is the payload buffer a section read starts from; it doubles
// as bytes arrive, so a length prefix alone never claims more memory.
const firstChunk = 64 << 10

// section is one named payload of a container file.
type section struct {
	name   string
	encode func(*Enc)
}

// writeContainer writes magic, each section framed and checksummed, and the
// END sentinel, then flushes. A *bufio.Writer is written through as is.
func writeContainer(w io.Writer, magic string, sections []section) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	var e Enc
	var hdr []byte
	for _, s := range append(sections, section{secEnd, func(*Enc) {}}) {
		e.Reset()
		s.encode(&e)
		hdr = binary.AppendUvarint(hdr[:0], uint64(len(s.name)))
		hdr = append(hdr, s.name...)
		hdr = binary.AppendUvarint(hdr, uint64(e.Len()))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(e.Data()))
		if _, err := bw.Write(hdr); err != nil {
			return fmt.Errorf("store: write section %s header: %w", s.name, err)
		}
		if _, err := bw.Write(e.Data()); err != nil {
			return fmt.Errorf("store: write section %s: %w", s.name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// readContainer checks magic, then reads sections up to END, verifying
// every checksum. A section named in decoders is decoded by it and must
// leave its payload cleanly and fully consumed; any other is skipped, so
// the format can grow without breaking old readers.
func readContainer(r io.Reader, magic string, decoders map[string]func(*Dec) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("store: read magic: %w", err)
	}
	if string(head) != magic {
		return fmt.Errorf("store: bad magic %q, want %q", head, magic)
	}
	for {
		name, payload, err := readSection(br)
		if err != nil {
			return err
		}
		if name == secEnd {
			return nil
		}
		decode, ok := decoders[name]
		if !ok {
			continue
		}
		d := NewDec(payload)
		if err := decode(d); err != nil {
			return err
		}
		if d.Err() != nil {
			return fmt.Errorf("store: section %s: %w", name, d.Err())
		}
		if !d.Done() {
			return fmt.Errorf("store: section %s has %d trailing bytes", name, d.Remaining())
		}
	}
}

// readSection reads one framed section and verifies its checksum.
func readSection(r *bufio.Reader) (string, []byte, error) {
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("store: read section name length: %w", err)
	}
	if nameLen == 0 || nameLen > 64 {
		return "", nil, fmt.Errorf("store: implausible section name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", nil, fmt.Errorf("store: read section name: %w", err)
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("store: section %s: read size: %w", name, err)
	}
	if size > maxSectionSize {
		return "", nil, fmt.Errorf("store: section %s: implausible size %d", name, size)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return "", nil, fmt.Errorf("store: section %s: read crc: %w", name, err)
	}
	payload, err := readPayload(r, int(size))
	if err != nil {
		return "", nil, fmt.Errorf("store: section %s: read payload: %w", name, err)
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return "", nil, fmt.Errorf("store: section %s: checksum mismatch (got %08x, want %08x)", name, got, want)
	}
	return string(name), payload, nil
}

// readPayload reads size bytes into a buffer that starts at firstChunk and
// doubles only once the bytes to fill it have arrived: what a truncated or
// lying file makes the reader allocate follows its length, not its claim.
func readPayload(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, 0, min(size, firstChunk))
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(size, 2*cap(buf))-len(buf))
		}
		n, err := io.ReadFull(r, buf[len(buf):min(size, cap(buf))])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// replaceFile durably replaces path with what write produces: a temp file
// with a per-call unique name in path's directory, written through one
// buffer, synced and closed, renamed over path, and the directory synced
// so the rename itself survives a power failure. A failure at any step
// removes the temp file and leaves path as it was.
func replaceFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp's 0600 would make the file private; keep os.Create's
	// mode under the usual umask.
	if err := f.Chmod(0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}

// loadFile opens path and hands it to load.
func loadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return load(f)
}
