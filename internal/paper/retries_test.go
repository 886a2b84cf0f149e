package paper_test

import (
	"math"
	"testing"

	"geneva/internal/paper"
)

func TestDNSRetryCurveAmplifies(t *testing.T) {
	curve := paper.DNSRetryCurve(1, 5, 150)
	// Monotonically non-decreasing (allowing sampling noise).
	for k := 2; k <= 5; k++ {
		if curve[k] < curve[k-1]-0.08 {
			t.Errorf("retry curve dipped: %d tries %.2f < %d tries %.2f",
				k, curve[k], k-1, curve[k-1])
		}
	}
	// The single-try rate is the resync entry rate (~0.52); three tries
	// should land near the paper's 89%.
	if curve[1] < 0.35 || curve[1] > 0.7 {
		t.Errorf("1 try = %.2f, want ~0.52", curve[1])
	}
	if curve[3] < 0.75 {
		t.Errorf("3 tries = %.2f, want ~0.89", curve[3])
	}
	// The amplification should roughly follow 1-(1-p)^k.
	p := curve[1]
	for k := 2; k <= 5; k++ {
		want := 1 - math.Pow(1-p, float64(k))
		if math.Abs(curve[k]-want) > 0.15 {
			t.Errorf("%d tries = %.2f, independent-retry model predicts %.2f", k, curve[k], want)
		}
	}
}

func TestOrderSensitivity(t *testing.T) {
	normal, reversed := paper.OrderSensitivity(120)
	if normal < 0.85 {
		t.Errorf("Strategy 5 normal order = %.2f, want ~0.97", normal)
	}
	if reversed > 0.25 {
		t.Errorf("Strategy 5 reversed order = %.2f; the paper found it ineffective", reversed)
	}
}
