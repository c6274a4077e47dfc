package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
)

// The database geometry every wire workload runs against, pinned so that
// every machine takes the same code path. partitions is how many quarters
// of the page range the op stream knows: the file backend this stream was
// written for splits the range so, and the stream stays as it was.
const (
	dbPages    = 65536
	poolPages  = 4096
	ssdFrames  = 16384
	pageSize   = 256
	partitions = 4
	partPages  = dbPages / partitions
	valueSize  = 64 // bytes written by one OpUpdate: exactly one stamp
)

// Workload names, in the order the suite runs them.
const (
	wlReadHot   = "srv_read_hot"
	wlReadCold  = "srv_read_cold"
	wlUpdateMix = "srv_update_mix"
	wlSimOLTP   = "sim_oltp"
)

var workloadNames = []string{wlReadHot, wlReadCold, wlUpdateMix, wlSimOLTP}

// hotPages is the size of srv_read_hot's working set: pid = 32·k spreads
// it over the whole page range and half fills the 4096-frame pool.
const hotPages = 2048

// The 80/20 hotspot of srv_read_cold and srv_update_mix: 80 % of the reads
// go to the pages with pid % 5 == 0 (13108 pages: larger than the pool,
// smaller than the SSD tier), the rest to the other 52428.
const (
	hotspotStride = 5
	hotspotPages  = (dbPages + hotspotStride - 1) / hotspotStride
	hotspotShare  = 80 // percent
)

// rng is splitmix64: eleven lines that do not change with the Go release,
// so a seed names the same op stream on every toolchain.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

type opKind uint8

const (
	opGet opKind = iota
	opTx         // two stamped OpUpdates on pages a and b, then OpCommit
)

// op is one generated client operation.
type op struct {
	kind opKind
	a, b int64
}

// generator produces one client's op stream for a workload. The stream is
// a pure function of (workload, seed, client, clients); the server sees
// only the requests it yields.
type generator struct {
	workload        string
	r               rng
	client, clients int
	n               int64 // ops yielded so far
}

func newGenerator(workload string, seed uint64, client, clients int) *generator {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rng(seed*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(client+1)*0xD1B54A32D192ED03)
	return &generator{workload: workload, r: r, client: client, clients: clients}
}

func (g *generator) hotspot() int64 {
	if g.r.intn(100) < hotspotShare {
		return hotspotStride * g.r.intn(hotspotPages)
	}
	j := g.r.intn(dbPages - hotspotPages)
	return j/(hotspotStride-1)*hotspotStride + 1 + j%(hotspotStride-1)
}

// owned returns a page of partition part that this client may write:
// pid % clients == client, so every page has exactly one writer.
func (g *generator) owned(part int64) int64 {
	base := part * partPages
	c := int64(g.clients)
	first := ((int64(g.client)-base)%c + c) % c
	return base + first + c*g.r.intn((partPages-first+c-1)/c)
}

func (g *generator) next() op {
	i := g.n
	g.n++
	switch g.workload {
	case wlReadHot:
		return op{kind: opGet, a: 32 * g.r.intn(hotPages)}
	case wlReadCold:
		return op{kind: opGet, a: g.hotspot()}
	}
	// srv_update_mix: three hotspot Gets, then one write transaction; every
	// fourth transaction takes its two pages from different quarters of the
	// page range.
	if i%4 != 3 {
		return op{kind: opGet, a: g.hotspot()}
	}
	part := g.r.intn(partitions)
	a := g.owned(part)
	if (i/4)%4 == 3 {
		part = (part + 1 + g.r.intn(partitions-1)) % partitions
	}
	b := g.owned(part)
	for b == a {
		b = g.owned(part)
	}
	return op{kind: opTx, a: a, b: b}
}

// warmupOps is the fixed number of operations (over all clients) that
// bring the server to the state the measured window starts from.
func warmupOps(workload string) int {
	n := 4000 // srv_update_mix: 3000 Gets and 1000 transactions
	switch workload {
	case wlReadHot:
		return 2 * hotPages // every page of the working set, twice
	case wlReadCold:
		n = 60000 // enough evictions to fill the 16384-frame SSD tier
	}
	if quick {
		n /= 50
	}
	return n
}

// warmupOp is srv_read_hot's warm-up stream: the working set in order, so
// that every page is resident — and has the two references LRU-2 ranks by —
// whatever the seed. The other workloads warm up on their own stream.
func warmupOp(i, client, clients int) op {
	return op{kind: opGet, a: 32 * int64((i*clients+client)%hotPages)}
}

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(workload string, seed uint64, clients, n int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for c := 0; c < clients; c++ {
		g := newGenerator(workload, seed, c, clients)
		for i := 0; i < n; i++ {
			o := g.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(b[1:], uint64(o.a))
			binary.LittleEndian.PutUint64(b[9:], uint64(o.b))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// A stamp is the 64 bytes a write transaction puts at the head of a page:
// seq(8) writer(4) pid(8) filler(40) crc32(4). It makes every page
// self-describing, so a read can tell an intact page from a torn, stale or
// misdirected one without knowing what was written.
func stamp(buf []byte, pid int64, seq uint64, writer uint32) {
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint32(buf[8:], writer)
	binary.LittleEndian.PutUint64(buf[12:], uint64(pid))
	for i := 20; i < valueSize-4; i++ {
		buf[i] = byte(seq) + byte(i)
	}
	binary.LittleEndian.PutUint32(buf[valueSize-4:], crc32.ChecksumIEEE(buf[:valueSize-4]))
}

type stampState int

const (
	stampUnwritten stampState = iota // all zero: the page was never written
	stampOK
	stampCorrupt
)

// readStamp classifies the head of page pid's payload.
func readStamp(head []byte, pid int64) (seq uint64, writer uint32, st stampState) {
	if len(head) < valueSize {
		return 0, 0, stampCorrupt
	}
	head = head[:valueSize]
	zero := true
	for _, c := range head {
		if c != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0, 0, stampUnwritten
	}
	if binary.LittleEndian.Uint32(head[valueSize-4:]) != crc32.ChecksumIEEE(head[:valueSize-4]) ||
		int64(binary.LittleEndian.Uint64(head[12:])) != pid {
		return 0, 0, stampCorrupt
	}
	return binary.LittleEndian.Uint64(head[0:]), binary.LittleEndian.Uint32(head[8:]), stampOK
}
