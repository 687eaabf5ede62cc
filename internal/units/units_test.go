package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTransmitTime(t *testing.T) {
	tests := []struct {
		name string
		bits int64
		rate BitRate
		want time.Duration
	}{
		{"one packet at paper link speed", 12000, 12000, time.Second},
		{"half packet", 6000, 12000, 500 * time.Millisecond},
		{"zero bits", 0, 12000, 0},
		{"negative bits", -5, 12000, 0},
		{"dead link", 12000, 0, Forever},
		{"negative rate", 12000, -1, Forever},
		{"fast link", 12000, 12_000_000, time.Microsecond * 1000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TransmitTime(tt.bits, tt.rate); got != tt.want {
				t.Errorf("TransmitTime(%d, %v) = %v, want %v", tt.bits, tt.rate, got, tt.want)
			}
		})
	}
}

func TestBitsOver(t *testing.T) {
	tests := []struct {
		name string
		rate BitRate
		d    time.Duration
		want int64
	}{
		{"one second at link speed", 12000, time.Second, 12000},
		{"hundred ms", 12000, 100 * time.Millisecond, 1200},
		{"zero duration", 12000, 0, 0},
		{"negative duration", 12000, -time.Second, 0},
		{"zero rate", 0, time.Second, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BitsOver(tt.rate, tt.d); got != tt.want {
				t.Errorf("BitsOver(%v, %v) = %d, want %d", tt.rate, tt.d, got, tt.want)
			}
		})
	}
}

func TestByteBitConversions(t *testing.T) {
	if got := BytesToBits(1500); got != 12000 {
		t.Errorf("BytesToBits(1500) = %d, want 12000", got)
	}
}

// TestTransmitTimeMonotone checks that transmit time is monotone
// non-decreasing in payload size.
func TestTransmitTimeMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return TransmitTime(lo, 12000) <= TransmitTime(hi, 12000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecondsToDuration(t *testing.T) {
	if got := SecondsToDuration(1.5); got != 1500*time.Millisecond {
		t.Errorf("SecondsToDuration(1.5) = %v", got)
	}
	if got := SecondsToDuration(-2); got != 0 {
		t.Errorf("SecondsToDuration(-2) = %v, want 0", got)
	}
	if got := SecondsToDuration(math.MaxFloat64); got != Forever {
		t.Errorf("SecondsToDuration(huge) = %v, want Forever", got)
	}
}

func TestBitRateString(t *testing.T) {
	tests := []struct {
		r    BitRate
		want string
	}{
		{12000, "12 kbit/s"},
		{500, "500 bit/s"},
		{2.5e6, "2.5 Mbit/s"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("(%v).String() = %q, want %q", float64(tt.r), got, tt.want)
		}
	}
}
