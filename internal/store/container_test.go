package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// pinnedFiles writes the four pinned files from one small synthetic
// corpus (researchers, 6 entities × 4 pages, seed 2016): a store file with
// and without INDX, the domain artifact NewDomainLearner packages, and a
// checkpoint file of two sessions. Built once per test binary.
var pinnedFiles = sync.OnceValues(func() (map[string][]byte, error) {
	g, err := synth.Generate(synth.Config{Domain: synth.DomainResearchers, NumEntities: 6, PagesPerEntity: 4, Seed: 2016})
	if err != nil {
		return nil, err
	}
	c := g.Corpus
	art, err := NewDomainLearner(c, g.Tokenizer, types.NewRegexRecognizer(), nil, nil).Artifact()
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for name, save := range map[string]func(io.Writer) error{
		"store+indx":  func(w io.Writer) error { return Save(w, c, search.BuildIndex(c.Pages)) },
		"store":       func(w io.Writer) error { return Save(w, c, nil) },
		"domains":     func(w io.Writer) error { return SaveDomains(w, art) },
		"checkpoints": func(w io.Writer) error { return SaveCheckpoints(w, pinnedCheckpoints) },
	} {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			return nil, err
		}
		out[name] = buf.Bytes()
	}
	return out, nil
})

// pinnedCheckpoints are two sessions' state: one booted with fired queries
// and pages whose ids go down as well as up, one snapshotted
// mid-bootstrap.
var pinnedCheckpoints = []core.Checkpoint{
	{
		Entity: 5, Aspect: synth.AspResearch, Booted: true,
		Fired:   []core.Query{"data mining", "award"},
		PageIDs: []corpus.PageID{20, 3, 21, 22},
		RPhi:    0.4375, RStarPhi: 1.0 / 3,
	},
	{Entity: 2, Aspect: synth.AspAward},
}

func mustPinnedFiles(t testing.TB) map[string][]byte {
	t.Helper()
	files, err := pinnedFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// reader is one file reader under test, as load-then-save: reload returns
// the file the loaded value writes back.
type reader struct {
	name   string
	file   string // the pinned file it reads
	reload func([]byte) ([]byte, error)
}

var readers = []reader{
	{"Load", "store+indx", reloadStore(nil)},
	{"Load-keep", "store+indx", reloadStore(func(id corpus.PageID) bool { return id%2 == 0 })},
	{"Load-noINDX", "store", reloadStore(nil)},
	{"LoadDomains", "domains", reloadWith(LoadDomains, SaveDomains)},
	{"LoadCheckpoints", "checkpoints", reloadWith(LoadCheckpoints, SaveCheckpoints)},
}

func reloadWith[T any](load func(io.Reader) (T, error), save func(io.Writer, T) error) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		v, err := load(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := save(&buf, v); err != nil {
			return nil, fmt.Errorf("save after a clean load: %w", err)
		}
		return buf.Bytes(), nil
	}
}

func reloadStore(keep func(corpus.PageID) bool) func([]byte) ([]byte, error) {
	return reloadWith(func(r io.Reader) (*Bundle, error) { return Load(r, keep) },
		func(w io.Writer, b *Bundle) error { return Save(w, b.Corpus, b.Index) })
}

// span locates one section frame in a container file: the frame starts at
// start, its CRC at crc, its payload runs from crc+4 to end.
type span struct{ start, crc, end int }

// fileMagic returns the magic data opens with, "" for none of the three.
func fileMagic(data []byte) string {
	for _, m := range []string{magic, ckptMagic, domMagic} {
		if bytes.HasPrefix(data, []byte(m)) {
			return m
		}
	}
	return ""
}

// spans walks data's section frames after a known magic, stopping at the
// first frame that does not parse.
func spans(data []byte) []span {
	off := len(fileMagic(data))
	var out []span
	for off > 0 && off < len(data) {
		nameLen, n := binary.Uvarint(data[off:])
		if n <= 0 || nameLen == 0 || nameLen > 64 || off+n+int(nameLen) > len(data) {
			break
		}
		p := off + n + int(nameLen)
		size, n := binary.Uvarint(data[p:])
		if n <= 0 || size > uint64(len(data)) || p+n+4+int(size) > len(data) {
			break
		}
		s := span{off, p + n, p + n + 4 + int(size)}
		out = append(out, s)
		off = s.end
	}
	return out
}

// withCRCs returns data with every frame's checksum recomputed, so a
// mutated payload reaches its decoder instead of failing at the CRC.
func withCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for _, s := range spans(out) {
		binary.LittleEndian.PutUint32(out[s.crc:], crc32.ChecksumIEEE(out[s.crc+4:s.end]))
	}
	return out
}

// TestFileFormatsPinned: the bytes on disk are the format. Each pinned
// file hashes to what the writers produced at commit 0f7f5b3, before the
// three formats shared one container, so a file written by either side
// loads on the other; and loading a file and saving it again gives back
// the same bytes.
func TestFileFormatsPinned(t *testing.T) {
	want := map[string]string{
		"store+indx":  "1db7493f0c3db62f428f27fb387bde3d92fcc79712912045b95adbcc2cd85b39",
		"store":       "ce7be21cf686f07781fb0710ab1ee63622f0881212ad353bb643f8b9644beb31",
		"domains":     "43122a49606634c0ac5be1728fb8798a731f853d7580edb9fea29371a75cc7fc",
		"checkpoints": "8ed88fe31cd34a4b94925e4573af74817380ba17b5dd25eb46f236db828f4ba7",
	}
	files := mustPinnedFiles(t)
	for name, data := range files {
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s (%d bytes): sha256 %s, want %s", name, len(data), got, want[name])
		}
	}
	for _, r := range readers {
		if r.name == "Load-keep" {
			continue // writes the kept pages only
		}
		if out, err := r.reload(files[r.file]); err != nil || !bytes.Equal(out, files[r.file]) {
			t.Errorf("%s: load then save: err %v, identical bytes %v", r.name, err, err == nil && bytes.Equal(out, files[r.file]))
		}
	}
}

// The corruption table: every reader, on its pinned file, against bad
// magic, a flipped bit in every section, truncation at every section
// boundary, and an unknown section it must skip.

func TestLoadRejectsBadMagic(t *testing.T) {
	files := mustPinnedFiles(t)
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			clean := files[r.file]
			flipped := bytes.Clone(clean)
			flipped[0] ^= 1
			cases := map[string][]byte{
				"empty": nil, "short": []byte("L2"), "flipped": flipped,
				"not a store": []byte("NOTASTORE-FILE"), "not a domain file": []byte("NOTADOM"),
			}
			for _, other := range readers {
				if fileMagic(files[other.file]) != fileMagic(clean) {
					cases[other.file] = files[other.file]
				}
			}
			for name, data := range cases {
				if _, err := r.reload(data); err == nil {
					t.Errorf("%s accepted", name)
				}
			}
		})
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	files := mustPinnedFiles(t)
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			clean := files[r.file]
			flip := func(what string, off int, mask byte) {
				bad := bytes.Clone(clean)
				bad[off] ^= mask
				if _, err := r.reload(bad); err == nil {
					t.Errorf("%s: flip %#02x at offset %d not detected", what, mask, off)
				}
			}
			ss := spans(clean)
			if len(ss) < 2 {
				t.Fatalf("%d sections", len(ss))
			}
			for i, s := range ss {
				flip(fmt.Sprintf("section %d crc", i), s.crc+1, 0x10)
				if s.end > s.crc+4 {
					flip(fmt.Sprintf("section %d payload", i), (s.crc+4+s.end)/2, 0x01)
				}
			}
			for _, off := range []int{len(clean) / 4, len(clean) / 2, 3 * len(clean) / 4} {
				flip("mid-file", off, 0x5a)
				flip("mid-file", off, 0xff)
			}
		})
	}
}

func TestLoadDetectsTruncation(t *testing.T) {
	files := mustPinnedFiles(t)
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			clean := files[r.file]
			cuts := []int{len(clean) - 1, len(clean) / 2, 8}
			for _, s := range spans(clean) {
				cuts = append(cuts, s.start, s.crc, s.end-1)
			}
			for _, n := range cuts {
				if _, err := r.reload(clean[:n]); err == nil {
					t.Errorf("truncation to %d of %d bytes not detected", n, len(clean))
				}
			}
		})
	}
}

func TestLoadSkipsUnknownSections(t *testing.T) {
	files := mustPinnedFiles(t)
	future := sectionFrame("FUTR", []byte("payload from the future"))
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			clean := files[r.file]
			want, err := r.reload(clean)
			if err != nil {
				t.Fatal(err)
			}
			ss := spans(clean)
			for _, at := range []int{ss[0].start, ss[len(ss)-1].start} { // first section, END
				spliced := append(append(bytes.Clone(clean[:at]), future...), clean[at:]...)
				if got, err := r.reload(spliced); err != nil || !bytes.Equal(got, want) {
					t.Errorf("unknown section at offset %d: err %v", at, err)
				}
			}
		})
	}
}

// TestLoadClaimedSectionSizeBoundsAllocation: a file of a few bytes whose
// first section claims a 2 GiB payload fails having allocated what the
// file holds, not what it claims.
func TestLoadClaimedSectionSizeBoundsAllocation(t *testing.T) {
	for _, r := range readers {
		data := append([]byte(fileMagic(mustPinnedFiles(t)[r.file])), 4, 'P', 'A', 'G', 'E')
		data = binary.AppendUvarint(data, maxSectionSize)
		data = append(data, 0, 0, 0, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.reload(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte file claiming %d bytes loaded", r.name, len(data), maxSectionSize)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: %d-byte file allocated %d bytes before failing", r.name, len(data), alloc)
		}
	}
}

// TestSaveFileConcurrentWriters: writers racing to one path each write
// their own temp file, all succeed, and the file is then one whole write;
// a failed write leaves the directory as it was.
func TestSaveFileConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "harvest.ckpt")
	writes := make([][]core.Checkpoint, 8)
	var wg sync.WaitGroup
	errs := make(chan error, len(writes))
	for i := range writes {
		writes[i] = []core.Checkpoint{{Entity: corpus.EntityID(i), Aspect: synth.AspResearch, Fired: []core.Query{"q"}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- SaveCheckpointsFile(path, writes[i])
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	got, err := LoadCheckpointsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if i := int(got[0].Entity); len(got) != 1 || i < 0 || i >= len(writes) || !reflect.DeepEqual(got, writes[i]) {
		t.Fatalf("file holds %+v, not one of the writes", got)
	}
	if err := SaveDomainsFile(path, nil); err == nil {
		t.Fatal("an artifact without models saved")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries after the writes, want the file alone", len(ents))
	}
	if after, err := LoadCheckpointsFile(path); err != nil || !reflect.DeepEqual(after, got) {
		t.Fatalf("a failed write changed the file: %+v, %v", after, err)
	}
}

// FuzzStoreReaders: every reader on any bytes, and on the same bytes with
// their checksums repaired so mutations reach the section decoders, never
// panics; whatever loads saves, and what it saves loads and saves again to
// the identical bytes.
func FuzzStoreReaders(f *testing.F) {
	files := mustPinnedFiles(f)
	for _, data := range files {
		f.Add(data)
		for i, s := range spans(data) {
			f.Add(data[:s.start])
			if s.end > s.crc+4 {
				bad := bytes.Clone(data)
				bad[(s.crc+4+s.end)/2] ^= 1 << (i % 8)
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRCs(data)} {
			for _, r := range readers {
				out, err := r.reload(in)
				if err != nil {
					continue
				}
				again, err := r.reload(out)
				if err != nil {
					t.Fatalf("%s: a saved file does not load: %v", r.name, err)
				}
				if !bytes.Equal(again, out) {
					t.Fatalf("%s: load then save is not a fixed point", r.name)
				}
			}
		}
	})
}
