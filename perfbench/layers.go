package main

import (
	"fmt"
	"strings"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/marshal"
	"scsq/internal/mpicar"
	"scsq/internal/rp"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/tcpcar"
	"scsq/internal/vtime"
)

// shape is one kind of traffic a workload sends: a carrier, the MPI buffer
// size (0 for TCP, which flushes one array per frame) and the array size.
type shape struct {
	Kind  string // "mpi" or "tcp"
	Buf   int
	ElemB int
}

// shapeLoad is how much of a shape the traced passes sent, read from the
// engines' send.* and link.* counters.
type shapeLoad struct {
	Frames, Bytes, Elems int64
}

// layerStats gathers the traced passes' counters and replays their traffic
// shape through each layer's public functions.
type layerStats struct {
	shapes       map[shape]*shapeLoad
	linkFrames   map[string]int64 // "mpi", "tcp": link.frames.* totals
	reservations [][]reservation
	reserved     int
	catalog      []time.Duration

	// Replay results, ns per frame (or per reservation) by shape.
	sendNs, recvNs, connNs map[shape]float64
	encNsPerKB, decNsPerKB float64
	reserveNs              float64
	parseUs                float64
}

func newLayerStats() *layerStats {
	return &layerStats{
		shapes:     map[shape]*shapeLoad{},
		linkFrames: map[string]int64{},
		sendNs:     map[shape]float64{}, recvNs: map[shape]float64{}, connNs: map[shape]float64{},
	}
}

// addPoint folds one traced point's counters into the traffic shape.
func (l *layerStats) addPoint(p point, r pointRun) {
	if r.Err != nil {
		return
	}
	for name, v := range r.Counters.Counters {
		kind, _, _ := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(name, "send.frames."), "link.frames."), ":")
		switch {
		case strings.HasPrefix(name, "send.frames."):
			l.load(p, kind).Frames += v
		case strings.HasPrefix(name, "send.bytes."):
			kind, _, _ = strings.Cut(strings.TrimPrefix(name, "send.bytes."), ":")
			l.load(p, kind).Bytes += v
		case strings.HasPrefix(name, "link.frames."):
			l.linkFrames[kind] += v
		}
	}
	l.load(p, p.Carrier).Elems += p.Elems
	l.reservations = append(l.reservations, r.Reservations)
	l.reserved += r.Reserved
	if r.CatalogSnap > 0 {
		l.catalog = append(l.catalog, r.CatalogSnap)
	}
}

func (l *layerStats) load(p point, kind string) *shapeLoad {
	s := shape{Kind: kind, ElemB: p.ElemB}
	if kind == "mpi" {
		s.Buf = p.buf
		if s.Buf == 0 {
			s.Buf = defaultMPIBuf
		}
	}
	if l.shapes[s] == nil {
		l.shapes[s] = &shapeLoad{}
	}
	return l.shapes[s]
}

// replayFrames bounds each per-shape replay.
const replayFrames = 4000

// replay times each layer's public functions on the traced passes' shapes.
func (l *layerStats) replay(deck []point) error {
	cost := hw.DefaultCostModel()
	var encNs, decNs, kb float64
	for s, ld := range l.shapes {
		if ld.Frames == 0 || ld.Elems == 0 || s.ElemB == 0 {
			continue
		}
		arr := array(s.ElemB)
		framesPerElem := float64(ld.Frames) / float64(ld.Elems)
		n := int(min(max(1, float64(replayFrames)/framesPerElem), 20))

		// Sender driver over the shape's carrier, capturing the frames for
		// the receiver replay.
		env, err := hw.NewLOFAR()
		if err != nil {
			return err
		}
		conn, inbox, cfg, err := dialShape(env, s, cost)
		if err != nil {
			return err
		}
		var frames []carrier.Frame
		done := make(chan struct{})
		go func() {
			for d := range inbox {
				fr := d.Frame
				fr.Payload = append([]byte(nil), fr.Payload...)
				fr.Pooled = false
				fr.Hops = nil
				carrier.Recycle(&d.Frame)
				frames = append(frames, fr)
			}
			close(done)
		}()
		t0 := time.Now()
		sent, _, err := rp.PushElements("q0/replay", conn, cfg, sqep.Element{Value: arr}, n)
		el := time.Since(t0)
		close(inbox)
		<-done
		if err != nil {
			return fmt.Errorf("replay %+v: %w", s, err)
		}
		l.sendNs[s] = float64(el) / float64(sent)

		if l.recvNs[s], err = replayReceiver(frames, s, cost); err != nil {
			return err
		}
		if l.connNs[s], err = replayConn(s, frames, cost); err != nil {
			return err
		}

		e, d, err := replayMarshal(arr)
		if err != nil {
			return err
		}
		w := float64(ld.Elems) * float64(s.ElemB) / 1024
		encNs += e * w
		decNs += d * w
		kb += w
	}
	if kb > 0 {
		l.encNsPerKB, l.decNsPerKB = encNs/kb, decNs/kb
	}
	l.replayReservations()
	return l.replayParse(deck)
}

func array(bytes int) []float64 {
	arr := make([]float64, max(1, bytes/8))
	for i := range arr {
		arr[i] = float64(i % 997) // gen_array's content
	}
	return arr
}

// dialShape opens a carrier connection of the shape's kind on env and
// returns the sender configuration the engine uses on it.
func dialShape(env *hw.Env, s shape, cost hw.CostModel) (carrier.Conn, carrier.Inbox, rp.SenderConfig, error) {
	inbox := make(carrier.Inbox, 64)
	if s.Kind == "mpi" {
		conn, err := mpicar.NewFabric(env).Dial(1, 0, carrier.DoubleBuffered, inbox)
		src, _ := env.Node(hw.BlueGene, 1)
		return conn, inbox, rp.SenderConfig{BufBytes: s.Buf, Mode: carrier.DoubleBuffered,
			MarshalPerByte: cost.BGMarshalByte, CacheFactor: cost.CacheFactor, CPU: src.CPU}, err
	}
	conn, err := tcpcar.NewFabric(env).Dial(tcpcar.Endpoint{Cluster: hw.BackEnd, Node: 0},
		tcpcar.Endpoint{Cluster: hw.BlueGene, Node: 0}, inbox)
	src, _ := env.Node(hw.BackEnd, 0)
	return conn, inbox, rp.SenderConfig{BufBytes: 1 << 20, Mode: carrier.DoubleBuffered, FlushPerElement: true,
		MarshalPerByte: cost.BeCPUByte, CPU: src.CPU}, err
}

// replayReceiver feeds captured frames from a pre-filled inbox through a
// receiver driver and returns ns per frame.
func replayReceiver(frames []carrier.Frame, s shape, cost hw.CostModel) (float64, error) {
	if len(frames) == 0 {
		return 0, fmt.Errorf("replay %+v: no frames captured", s)
	}
	inbox := make(carrier.Inbox, len(frames))
	for _, fr := range frames {
		inbox <- carrier.Delivered{Frame: fr, At: fr.Ready, ViaTCP: s.Kind == "tcp"}
	}
	recv := rp.NewReceiver(inbox, rp.ReceiverConfig{
		Producers: 1, MPIPerByte: cost.BGMarshalByte, TCPPerByte: cost.BGCPUByte,
		CacheFactor: cost.CacheFactor, CPU: vtime.NewResource("replay"),
		TrackOffsets: true, BatchFrames: core.DefaultKernelBatch,
	})
	t0 := time.Now()
	if err := recv.Open(nil); err != nil {
		return 0, err
	}
	for {
		_, ok, err := recv.Next()
		if err != nil {
			return 0, fmt.Errorf("replay %+v: receiver: %w", s, err)
		}
		if !ok {
			break
		}
	}
	el := time.Since(t0)
	if err := recv.Close(); err != nil {
		return 0, err
	}
	return float64(el) / float64(len(frames)), nil
}

// replayConn sends the captured frames again through a fresh carrier
// connection, without a sender driver, and returns ns per frame.
func replayConn(s shape, frames []carrier.Frame, cost hw.CostModel) (float64, error) {
	env, err := hw.NewLOFAR()
	if err != nil {
		return 0, err
	}
	conn, inbox, _, err := dialShape(env, s, cost)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		for range inbox {
		}
		close(done)
	}()
	t0 := time.Now()
	for _, fr := range frames {
		if _, err = conn.Send(fr); err != nil {
			break
		}
	}
	el := time.Since(t0)
	close(inbox)
	<-done
	if err != nil {
		return 0, fmt.Errorf("replay %+v: send: %w", s, err)
	}
	return float64(el) / float64(len(frames)), nil
}

// replayMarshal times encoding and decoding arr, in ns per KiB.
func replayMarshal(arr []float64) (enc, dec float64, err error) {
	var v any = arr
	buf, err := marshal.Append(nil, v)
	if err != nil {
		return 0, 0, err
	}
	kb := float64(len(buf)) / 1024
	n := max(1, int(64<<20/len(buf))) // about 64 MiB each way
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if buf, err = marshal.Append(buf[:0], v); err != nil {
			return 0, 0, err
		}
	}
	enc = float64(time.Since(t0)) / float64(n) / kb
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, err = marshal.Decode(buf); err != nil {
			return 0, 0, err
		}
	}
	dec = float64(time.Since(t0)) / float64(n) / kb
	return enc, dec, nil
}

// replayReservations replays every recorded grant, per resource and in
// commit order, through UseAs on fresh resources.
func (l *layerStats) replayReservations() {
	var n int
	var el time.Duration
	for _, rs := range l.reservations {
		res := map[int]*vtime.Resource{}
		for _, r := range rs {
			if res[r.res] == nil {
				res[r.res] = vtime.NewResource("replay")
			}
		}
		t0 := time.Now()
		for _, r := range rs {
			res[r.res].UseAs(r.owner, r.ready, r.service)
		}
		el += time.Since(t0)
		n += len(rs)
	}
	if n > 0 {
		l.reserveNs = float64(el) / float64(n)
	}
}

// replayParse times scsql.Parse of every statement of the deck.
func (l *layerStats) replayParse(deck []point) error {
	const rounds = 20
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, p := range deck {
			if _, err := scsql.Parse(p.Stmt); err != nil {
				return fmt.Errorf("parse %s: %w", p.Key, err)
			}
		}
	}
	l.parseUs = us(time.Since(t0)) / float64(rounds*len(deck))
	return nil
}

// weighted averages per-shape replay costs by the frames each shape sent.
func (l *layerStats) weighted(ns map[shape]float64, kind string) (float64, bool) {
	var tot, w float64
	for s, v := range ns {
		if kind != "" && s.Kind != kind {
			continue
		}
		f := float64(l.shapes[s].Frames)
		tot += v * f
		w += f
	}
	if w == 0 {
		return 0, false
	}
	return tot / w, true
}

// report adds the per-layer metrics of the traced passes.
func (l *layerStats) report(rep *report, tr *tracer, passes int) {
	self := tr.selfByName()
	meanMs := func(name string) float64 {
		var xs []float64
		for _, d := range self[name] {
			xs = append(xs, ms(d))
		}
		if len(xs) == 0 {
			return 0
		}
		return sum(xs) / float64(len(xs))
	}
	rep.set("core.setup_ms", "ms", meanMs("core.setup"))
	rep.set("core.build_ms", "ms", meanMs("core.build"))
	rep.set("core.drain_ms", "ms", meanMs("core.drain"))
	rep.set("core.reset_ms", "ms", meanMs("core.reset"))
	rep.set("scsql.parse_us", "us", l.parseUs)

	var frames, elems int64
	for _, ld := range l.shapes {
		frames += ld.Frames
		elems += ld.Elems
	}
	p := float64(max(passes, 1))
	rep.set("rp.send.frames", "count", float64(frames)/p)
	rep.set("rp.send.frames_per_elem", "frames", float64(frames)/float64(max(elems, 1)))
	rep.set("mpicar.frames", "count", float64(l.linkFrames["mpi"])/p)
	rep.set("tcpcar.frames", "count", float64(l.linkFrames["tcp"])/p)
	rep.set("vtime.reservations", "count", float64(l.reserved)/p)
	rep.set("vtime.reserve_ns", "ns", l.reserveNs)
	for _, m := range []struct {
		name string
		ns   map[shape]float64
		kind string
	}{
		{"rp.send.ns_per_frame", l.sendNs, ""},
		{"rp.recv.ns_per_frame", l.recvNs, ""},
		{"mpicar.send_ns_per_frame", l.connNs, "mpi"},
		{"tcpcar.send_ns_per_frame", l.connNs, "tcp"},
	} {
		if v, ok := l.weighted(m.ns, m.kind); ok {
			rep.set(m.name, "ns", v)
		} else {
			rep.unmeasured(m.name, "ns", "no array traffic over this carrier to replay")
		}
	}
	rep.set("marshal.encode_ns_per_kb", "ns/KiB", l.encNsPerKB)
	rep.set("marshal.decode_ns_per_kb", "ns/KiB", l.decNsPerKB)
	var cat []float64
	for _, d := range l.catalog {
		cat = append(cat, us(d))
	}
	rep.set("catalog.snapshot_us", "us", median(cat))

	shapes := map[string]any{}
	for s, ld := range l.shapes {
		shapes[fmt.Sprintf("%s/buf=%d/elem=%d", s.Kind, s.Buf, s.ElemB)] = map[string]any{
			"frames": ld.Frames, "bytes": ld.Bytes, "elems": ld.Elems,
			"send_ns_per_frame": l.sendNs[s], "recv_ns_per_frame": l.recvNs[s], "conn_ns_per_frame": l.connNs[s],
		}
	}
	rep.Notes["shapes"] = shapes
}
