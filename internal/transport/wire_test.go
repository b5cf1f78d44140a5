package transport

import (
	"fmt"
	"strings"
	"testing"

	"segscale/internal/telemetry"
)

// counterValue returns one lane's contribution to a gathered counter.
func counterValue(t *testing.T, col *telemetry.Collector, lane, name string) float64 {
	t.Helper()
	for _, m := range col.Gather() {
		if m.Name == name {
			return m.PerLane[lane]
		}
	}
	t.Fatalf("metric %s not gathered", name)
	return 0
}

// Binary16 payloads must travel with the same FIFO semantics as
// float32 ones, and both kinds must interleave safely on one
// (src,dst) pair when their tags differ.
func TestSendRecv16Basic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const tag16, tag32 = 7, 8
		if c.Rank() == 0 {
			if err := Send(c, 1, tag16, []uint16{0x3C00, 0x4000, 0xFC00}); err != nil {
				return err
			}
			return c.Send(1, tag32, []float32{1, 2})
		}
		got16, err := Recv[uint16](c, 0, tag16)
		if err != nil {
			return err
		}
		if len(got16) != 3 || got16[0] != 0x3C00 || got16[1] != 0x4000 || got16[2] != 0xFC00 {
			t.Errorf("binary16 payload corrupted: %#v", got16)
		}
		got32, err := c.Recv(0, tag32)
		if err != nil {
			return err
		}
		if len(got32) != 2 || got32[0] != 1 || got32[1] != 2 {
			t.Errorf("float32 payload corrupted: %#v", got32)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv16RingStep(t *testing.T) {
	const world = 4
	err := Run(world, func(c *Comm) error {
		me := c.Rank()
		next := (me + 1) % world
		prev := (me - 1 + world) % world
		got, err := SendRecv(c, next, 3, []uint16{uint16(me)}, prev, 3)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != uint16(prev) {
			t.Errorf("rank %d: got %#v, want [%d]", me, got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvInto16LengthMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, 1, 1, []uint16{1, 2, 3})
		}
		err := RecvInto(c, 0, 1, make([]uint16, 2))
		if err == nil {
			t.Error("length mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A float32 message consumed by a binary16 receive (and vice versa)
// is a protocol bug, reported as an error rather than silently
// reinterpreted — zero-length payloads included.
func TestPayloadKindMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 1, []float32{1}); err != nil {
				return err
			}
			if err := Send(c, 1, 2, []uint16{1}); err != nil {
				return err
			}
			return Send(c, 1, 3, []uint16{})
		default:
			if _, err := Recv[uint16](c, 0, 1); err == nil || !strings.Contains(err.Error(), "float32 payload") {
				t.Errorf("binary16 Recv on a float32 message: %v", err)
			}
			if _, err := c.Recv(0, 2); err == nil || !strings.Contains(err.Error(), "binary16 payload") {
				t.Errorf("Recv on a binary16 message: %v", err)
			}
			if err := c.RecvInto(0, 3, nil); err == nil || !strings.Contains(err.Error(), "binary16 payload") {
				t.Errorf("RecvInto on an empty binary16 message: %v", err)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The byte counters must model the 2-byte element width: n binary16
// words account exactly half the bytes of n float32 elements.
func TestSend16ByteAccounting(t *testing.T) {
	const n = 64
	col := telemetry.NewCollector()
	err := Run(2, func(c *Comm) error {
		c.SetProbe(col.NewProbe(fmt.Sprintf("rank%d", c.Rank()), telemetry.NewStepClock()))
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]float32, n)); err != nil {
				return err
			}
			return Send(c, 1, 2, make([]uint16, n))
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		_, err := Recv[uint16](c, 0, 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := counterValue(t, col, "rank0", "transport_sent_bytes")
	recvd := counterValue(t, col, "rank1", "transport_received_bytes")
	want := float64(4*n + 2*n)
	if sent != want || recvd != want {
		t.Fatalf("sent %.0f recv %.0f bytes, want %.0f (4n float32 + 2n binary16)", sent, recvd, want)
	}
}
