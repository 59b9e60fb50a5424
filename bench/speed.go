package main

import (
	"io"
	"net"
	"sync/atomic"
	"time"
)

// The machine-speed probe.
//
// The box this benchmark runs on is a few vCPUs of a shared host. How fast
// it runs identical code drifts with what the neighbours do to the memory
// system: over tens of seconds to minutes, dependent arithmetic moves by a
// few percent, but independent cache-missing loads, loopback round trips
// and — measured beside them — the program's own search and harvest
// operations by ×1.5 to ×2. A wall-clock time therefore repeats no better
// than that, however long the window and however robust the statistic
// (one-second slices of a single closed-loop client, medians over 10, 20
// and 30 s: the same 20–30 % run-to-run spread).
//
// So each client interleaves its operations with short chunks of fixed
// work of the benchmark's own and times them: a gather (independent loads
// at random places of an array far larger than the L2 cache) and a few
// round trips over a loopback TCP connection to a goroutine that echoes
// (system calls, a wake-up of another thread, the copy in and out — what
// every HTTP request pays). Of the kernels tried these two followed the
// operations' slowdown best on all workloads; arithmetic, a pointer
// chase, a sequential sum and a block copy each followed it on some or
// on none. A chunk's time over refChunkMs is the machine's slowdown at
// that moment, and the end-to-end timings are reported at reference
// speed: each one-second slice's timings are divided by that slice's
// slowdown.
//
// The probe runs no code of the program, so a change to the program moves
// a normalised metric exactly as it moves the raw one. The raw values and
// the slowdown are reported beside them (raw.*, machine.slowdown).

const (
	probeSlots       = 1 << 22 // 32 MB of uint64 (and 16 MB of indices): past the 4 MB L2
	probeGatherLoads = 1 << 14
	probeRoundTrips  = 12

	// probeEvery is how much operation time a client lets pass between two
	// chunks; a chunk takes about 0.4 ms, a twenty-fifth of that.
	probeEvery = 10 * time.Millisecond

	// refChunkMs is the reference speed: what a chunk takes on this class
	// of box at a typical moment. It only fixes the scale of the normalised
	// metrics — chosen so that they read like the raw ones — and must not
	// change once a baseline exists.
	refChunkMs = 0.4
)

// speedProbe is one client's probe.
type speedProbe struct {
	data []uint64
	idx  []uint32 // a fixed random permutation of data's slots
	at   int
	conn net.Conn
	ln   net.Listener
	sink uint64
}

func newSpeedProbe() (*speedProbe, error) {
	p := &speedProbe{data: make([]uint64, probeSlots), idx: make([]uint32, probeSlots)}
	for i := range p.idx {
		p.idx[i] = uint32(i)
		p.data[i] = uint64(i)
	}
	x := uint64(88172645463325252) // xorshift64: the same permutation in every run
	for i := len(p.idx) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
	}
	var err error
	if p.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [64]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	if p.conn, err = net.Dial("tcp", p.ln.Addr().String()); err != nil {
		p.ln.Close()
		return nil, err
	}
	return p, nil
}

func (p *speedProbe) close() {
	p.conn.Close() // ends the echo goroutine
	p.ln.Close()
}

// chunk does one chunk of fixed work and returns how long it took. A
// failed round trip (it cannot fail while the process lives) only makes
// the chunk short, which reads as a fast machine and flatters nothing:
// normalised timings get worse.
func (p *speedProbe) chunk() time.Duration {
	t0 := time.Now()
	var sum uint64
	for _, ix := range p.idx[p.at : p.at+probeGatherLoads] {
		sum += p.data[ix]
	}
	p.at = (p.at + probeGatherLoads) % probeSlots
	p.sink += sum
	var b [64]byte
	for k := 0; k < probeRoundTrips; k++ {
		if _, err := p.conn.Write(b[:]); err != nil {
			break
		}
		if _, err := io.ReadFull(p.conn, b[:]); err != nil {
			break
		}
	}
	return time.Since(t0)
}

// meter holds the counters the clients of a run advance and the window's
// sampler reads once a slice.
type meter struct {
	ops     atomic.Int64 // completed operations
	opNs    atomic.Int64 // Σ of their latencies
	probes  atomic.Int64 // completed probe chunks
	probeNs atomic.Int64 // Σ of their times
	slice   atomic.Int32 // index of the slice now running
}
