package webapi

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"l2q/internal/store"
	"l2q/internal/synth"
)

// gzipMember is payload as one gzip member.
func gzipMember(t testing.TB, payload []byte) []byte {
	t.Helper()
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

// gzipFrame wraps a gzip stream in a frame as marshalFrame would, whatever
// its size. The frame's CRC is taken here, so a doctored stream still
// passes the on-wire check.
func gzipFrame(kind byte, stream []byte) []byte {
	out := append([]byte(wireMagic), kind, wireFlagGzip)
	out = binary.AppendUvarint(out, uint64(len(stream)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(stream))
	return append(out, stream...)
}

// TestInflateCapRejects: a body one byte past the cap is an error on both
// paths that read one — a frame's gzip member, and an HTTP response body —
// never its first 32 MiB with a nil error.
func TestInflateCapRejects(t *testing.T) {
	atCap := make([]byte, maxResponseBytes)
	if got, err := openFrame(gzipFrame(wirePage, gzipMember(t, atCap)), wirePage); err != nil || len(got) != maxResponseBytes {
		t.Fatalf("member inflating to the cap: %d bytes, %v", len(got), err)
	}
	over := make([]byte, maxResponseBytes+1)
	if _, err := openFrame(gzipFrame(wirePage, gzipMember(t, over)), wirePage); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("member inflating to cap+1: %v, want an exceeds error", err)
	}

	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(body) //nolint:errcheck // the client's read is what is tested
	}))
	defer srv.Close()
	c := &Client{base: srv.URL, http: srv.Client()}
	var got []byte
	keep := func(b []byte) error { got = b; return nil }
	body = atCap
	if err := c.do(context.Background(), "get", request{path: "/", once: true}, keep); err != nil || len(got) != maxResponseBytes {
		t.Fatalf("response body at the cap: %d bytes, %v", len(got), err)
	}
	body = over
	if err := c.do(context.Background(), "get", request{path: "/", once: true}, keep); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("response body of cap+1 bytes: %v, want an exceeds error", err)
	}
}

// TestInflateSizeHintIsOnlyAHint: the ISIZE trailer picks the first
// allocation and decides nothing. A frame of two members ends with the
// second one's length — 0 here, far too small — and still decodes to both;
// a trailer that lies (4 GiB, 0) is refused by gzip's own length check, as
// before, and on the way there a 4 GiB claim allocates no more than deflate
// could have expanded the member to.
func TestInflateSizeHintIsOnlyAHint(t *testing.T) {
	payload := bytes.Repeat([]byte("the same paragraph over and over "), 400)
	member := gzipMember(t, payload)
	got, err := openFrame(gzipFrame(wirePage, member), wirePage)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("honest frame: %v", err)
	}
	if cap(got) > len(payload)+bytes.MinRead {
		t.Errorf("honest ISIZE: %d-byte payload inflated into a %d-byte buffer", len(payload), cap(got))
	}

	twoMembers := gzipFrame(wirePage, append(append([]byte(nil), member...), gzipMember(t, nil)...))
	if isize := binary.LittleEndian.Uint32(twoMembers[len(twoMembers)-4:]); isize != 0 {
		t.Fatalf("premise broken: the two-member frame ends with ISIZE %d, want 0", isize)
	}
	if got, err := openFrame(twoMembers, wirePage); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("frame ending with ISIZE 0: %d bytes, %v; want the whole payload", len(got), err)
	}

	for name, isize := range map[string]uint32{"4 GiB": 0xffffffff, "zero": 0} {
		lying := append([]byte(nil), member...)
		binary.LittleEndian.PutUint32(lying[len(lying)-4:], isize)
		frame := gzipFrame(wirePage, lying)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := openFrame(frame, wirePage)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("ISIZE %s: a member whose trailer lies was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("ISIZE %s on a %d-byte frame: %d bytes allocated", name, len(frame), grew)
		}
	}
}

// BenchmarkOpenFrameAllocs pins what opening a gzipped frame allocates:
// the reader over the payload and the inflated payload, sized once from
// the member's length trailer (io.ReadAll grew it from 512 bytes, five
// reallocations for a five-page response). Gated by scripts/alloc_gate.sh.
func BenchmarkOpenFrameAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	resp := searchPagesSeeds(g)[2] // five hits, five bodies
	b.Run("search5pages", func(b *testing.B) {
		frame := marshalFrame(wireSearchPages, func(e *store.Enc) { encodeSearchPagesWire(e, resp) })
		if frame[len(wireMagic)+1]&wireFlagGzip == 0 {
			b.Fatal("frame was not compressed")
		}
		if _, err := openFrame(frame, wireSearchPages); err != nil { // warm the reader pool
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := openFrame(frame, wireSearchPages); err != nil {
				b.Fatal(err)
			}
		}
	})
}
