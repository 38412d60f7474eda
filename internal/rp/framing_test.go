package rp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/marshal"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// recordConn is a carrier that records each delivered frame's length,
// offset and Last flag plus the concatenated payload bytes, recycling
// pooled payloads like a receiver would. With failEvery > 0, every
// failEvery-th Send fails with a retryable reset (recycling the payload, as
// carriers do on error) so the sender's retry path re-copies the frame.
type recordConn struct {
	failEvery int
	sends     int
	lens      []int
	offsets   []uint64
	lasts     []bool
	stream    []byte
	frames    []carrier.Frame // unpooled copies, for replay into a receiver
	keep      bool
}

func (c *recordConn) Send(f carrier.Frame) (vtime.Time, error) {
	c.sends++
	if c.failEvery > 0 && c.sends%c.failEvery == 0 {
		carrier.Recycle(&f)
		return 0, carrier.ErrPeerReset
	}
	c.lens = append(c.lens, len(f.Payload))
	c.offsets = append(c.offsets, f.Offset)
	c.lasts = append(c.lasts, f.Last)
	c.stream = append(c.stream, f.Payload...)
	if c.keep {
		cp := f
		cp.Payload = append([]byte(nil), f.Payload...)
		cp.Pooled = false
		c.frames = append(c.frames, cp)
	}
	carrier.Recycle(&f)
	return f.Ready, nil
}

func (c *recordConn) Close() error { return nil }

// floatArray returns an array whose marshaled size is bytes+5 (tag and
// length prefix), with element-distinct contents so misordered bytes show.
func floatArray(bytes int, seed float64) []float64 {
	arr := make([]float64, bytes/8)
	for i := range arr {
		arr[i] = seed + float64(i)
	}
	return arr
}

// TestSenderFramingEquivalence pins the sender's framing over the paper's
// buffer sweep: packed frames are exactly BufBytes long except the final
// one, offsets are cumulative, the concatenated payloads are the marshaled
// elements byte for byte, and the frame count follows from the stream
// length alone — with and without per-element flushing, and with a carrier
// that fails every k-th send so retries re-copy from the read offset.
func TestSenderFramingEquivalence(t *testing.T) {
	const elems = 2 // the second element starts mid-buffer behind the first's tail
	retry := carrier.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond}
	for _, buf := range []int{100, 1000, 1024, 64 << 10, 1_000_000} {
		for _, elemBytes := range []int{1_000, 300_000, 3_000_000} {
			var want []byte
			var values []sqep.Element
			for i := 0; i < elems; i++ {
				arr := floatArray(elemBytes, float64(i)*1e7)
				values = append(values, sqep.Element{Value: arr})
				var err error
				if want, err = marshal.Append(want, arr); err != nil {
					t.Fatal(err)
				}
			}
			for _, perElement := range []bool{false, true} {
				for _, failEvery := range []int{0, 97} {
					name := fmt.Sprintf("buf=%d/elem=%d/perElement=%v/failEvery=%d", buf, elemBytes, perElement, failEvery)
					t.Run(name, func(t *testing.T) {
						conn := &recordConn{failEvery: failEvery}
						cfg := SenderConfig{BufBytes: buf, Mode: carrier.DoubleBuffered, FlushPerElement: perElement, Retry: retry}
						d, err := newSenderDriver("s", conn, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, el := range values {
							if err := d.push(el); err != nil {
								t.Fatal(err)
							}
						}
						if err := d.finish(); err != nil {
							t.Fatal(err)
						}
						checkFraming(t, conn, want, buf, perElement, elems)
					})
				}
			}
		}
	}
}

func checkFraming(t *testing.T, conn *recordConn, want []byte, buf int, perElement bool, elems int) {
	t.Helper()
	if !bytes.Equal(conn.stream, want) {
		t.Fatalf("concatenated payloads (%d B) differ from the marshaled elements (%d B)", len(conn.stream), len(want))
	}
	n := len(conn.lens)
	wantFrames := len(want)/buf + 1 // full buffers plus the (possibly empty) final frame
	if perElement {
		wantFrames = elems + 1 // one frame per element plus the empty final frame
	}
	if n != wantFrames {
		t.Fatalf("frames = %d, want %d", n, wantFrames)
	}
	var off uint64
	for i := 0; i < n; i++ {
		if conn.offsets[i] != off {
			t.Fatalf("frame %d offset = %d, want cumulative %d", i, conn.offsets[i], off)
		}
		off += uint64(conn.lens[i])
		if conn.lasts[i] != (i == n-1) {
			t.Fatalf("frame %d Last = %v", i, conn.lasts[i])
		}
		if i < n-1 && !perElement && conn.lens[i] != buf {
			t.Fatalf("non-final frame %d is %d B, want exactly %d", i, conn.lens[i], buf)
		}
	}
	if perElement && conn.lens[n-1] != 0 {
		t.Fatalf("final per-element frame carries %d B, want 0", conn.lens[n-1])
	}
}

// TestReceiverInterleavedSmallFrames feeds two producers' 300 KB arrays to
// one receiver as alternating 100 B frames: every array must decode exactly
// and the reassembly buffers must be empty at end of stream.
func TestReceiverInterleavedSmallFrames(t *testing.T) {
	const perProducer = 2
	sources := []string{"a", "b"}
	conns := make([]*recordConn, len(sources))
	want := map[string][][]float64{}
	for p, src := range sources {
		conns[p] = &recordConn{keep: true}
		d, err := newSenderDriver(src, conns[p], SenderConfig{BufBytes: 100, Mode: carrier.SingleBuffered})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perProducer; i++ {
			arr := floatArray(300_000, float64(p*perProducer+i)*1e6)
			want[src] = append(want[src], arr)
			if err := d.push(sqep.Element{Value: arr}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.finish(); err != nil {
			t.Fatal(err)
		}
	}
	inbox := make(carrier.Inbox, len(conns[0].frames)+len(conns[1].frames))
	for i := 0; i < len(conns[0].frames) || i < len(conns[1].frames); i++ {
		for _, c := range conns {
			if i < len(c.frames) {
				inbox <- carrier.Delivered{Frame: c.frames[i]}
			}
		}
	}

	r := NewReceiver(inbox, ReceiverConfig{Producers: len(sources), TrackOffsets: true, BatchFrames: 16})
	got := map[string][][]float64{}
	for {
		el, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got[el.Src] = append(got[el.Src], el.Value.([]float64))
	}
	for _, src := range sources {
		if len(got[src]) != perProducer {
			t.Fatalf("%s: decoded %d arrays, want %d", src, len(got[src]), perProducer)
		}
		for i, arr := range got[src] {
			w := want[src][i]
			if len(arr) != len(w) {
				t.Fatalf("%s[%d]: %d floats, want %d", src, i, len(arr), len(w))
			}
			for j := range arr {
				if arr[j] != w[j] {
					t.Fatalf("%s[%d][%d] = %v, want %v", src, i, j, arr[j], w[j])
				}
			}
		}
		if n := len(r.bufs[src]); n != 0 {
			t.Errorf("%s: %d reassembly bytes left at end of stream", src, n)
		}
	}
}
