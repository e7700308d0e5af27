package gpu

import (
	"math"
	"strings"
	"testing"
)

func TestParseFleetExpandsAndModifies(t *testing.T) {
	fleet, err := ParseFleet("titanxp*2, titanxp@clock=0.6@gen=2, titanxp@sms=15@mem=6")
	if err != nil {
		t.Fatalf("ParseFleet: %v", err)
	}
	if len(fleet) != 4 {
		t.Fatalf("devices = %d, want 4", len(fleet))
	}
	// titanxp*N is N reference boards: every field but the display name is
	// TitanXPSpec's, so it describes the same pool as the empty fleet's
	// default, N times over.
	stock := TitanXPSpec()
	for i := 0; i < 2; i++ {
		got := fleet[i]
		got.Name = stock.Name
		if got != stock {
			t.Fatalf("stock entry %d differs from TitanXPSpec: %+v", i, fleet[i])
		}
	}
	derated := fleet[2]
	if got, want := derated.ClockHz, stock.ClockHz*0.6; math.Abs(got-want) > 1 {
		t.Fatalf("clock = %v, want %v", got, want)
	}
	if got, want := derated.H2DPinnedBps, stock.H2DPinnedBps/2; math.Abs(got-want) > 1 {
		t.Fatalf("gen2 H2D = %v, want %v", got, want)
	}
	if !strings.Contains(derated.Name, "clock=0.6") || !strings.Contains(derated.Name, "gen=2") {
		t.Fatalf("derated name = %q", derated.Name)
	}
	small := fleet[3]
	if small.SMs != 15 || small.GlobalMemBytes != 6<<30 {
		t.Fatalf("small part = %d SMs, %d bytes", small.SMs, small.GlobalMemBytes)
	}
}

func TestParseFleetNames(t *testing.T) {
	fleet, err := ParseFleet("titanxp@name=left,titanxp@name=right")
	if err != nil {
		t.Fatalf("ParseFleet: %v", err)
	}
	if fleet[0].Name != "left" || fleet[1].Name != "right" {
		t.Fatalf("names = %q, %q", fleet[0].Name, fleet[1].Name)
	}
}

func TestParseFleetRejects(t *testing.T) {
	cases := []struct{ name, spec string }{
		{"empty", ""},
		{"empty entry", "titanxp,,titanxp"},
		{"unknown kind", "voodoo2"},
		{"zero count", "titanxp*0"},
		{"negative count", "titanxp*-3"},
		{"huge count", "titanxp*100000"},
		{"cap overflow across entries", "titanxp*40,titanxp*40"},
		{"garbage count", "titanxp*many"},
		{"overflow clock", "titanxp@clock=1e308"},
		{"nan clock", "titanxp@clock=NaN"},
		{"zero clock", "titanxp@clock=0"},
		{"negative clock", "titanxp@clock=-1"},
		{"bad gen", "titanxp@gen=9"},
		{"bad sms", "titanxp@sms=0"},
		{"bad mem", "titanxp@mem=99999"},
		{"bare modifier", "titanxp@clock"},
		{"empty value", "titanxp@clock="},
		{"unknown modifier", "titanxp@volts=1.2"},
		{"duplicate ids", "titanxp@name=a,titanxp@name=a"},
		{"named count", "titanxp*2@name=a"},
		{"long name", "titanxp@name=" + strings.Repeat("x", 40)},
	}
	for _, tc := range cases {
		if _, err := ParseFleet(tc.spec); err == nil {
			t.Errorf("%s: ParseFleet(%q) accepted", tc.name, tc.spec)
		}
	}
}

func TestServiceSecondsHintOrdersSpecs(t *testing.T) {
	const n = 1 << 20
	stock := TitanXPSpec()
	slowClock := stock.Derated(0.5)
	narrowLink := stock.WithPCIeGen(1)
	tiny := stock.WithSMs(3)
	base := stock.ServiceSecondsHint(n)
	for name, spec := range map[string]DeviceSpec{
		"derated clock": slowClock, "narrow link": narrowLink, "few SMs": tiny,
	} {
		if h := spec.ServiceSecondsHint(n); h <= base {
			t.Errorf("%s hint %v not slower than stock %v", name, h, base)
		}
	}
	// The hint must scale with batch size, and never be degenerate.
	if small := stock.ServiceSecondsHint(4 << 10); small >= base || small <= 0 {
		t.Errorf("4K hint %v vs 1M hint %v", small, base)
	}
}

// FuzzParseFleet feeds the -fleet parser hostile specs: whatever happens,
// it must return an error or a bounded, usable fleet — never panic, never
// a zero-device or over-cap result, never a spec a simulation would divide
// by zero on.
func FuzzParseFleet(f *testing.F) {
	f.Add("")
	f.Add("titanxp")
	f.Add("titanxp*2,titanxp@clock=0.6@gen=2,titanxp@sms=15")
	f.Add("titanxp*999999999999999999999")
	f.Add("titanxp@name=a,titanxp@name=a")
	f.Add("titanxp@clock=1e308")
	f.Add("titanxp@clock=-0")
	f.Add("titanxp@clock=+Inf")
	f.Add("titanxp@mem=-1")
	f.Add(",,,")
	f.Add("titanxp*" + strings.Repeat("9", 400))
	f.Add("titanxp@@@@")
	f.Add("titanxp@name=\x00\xff")
	f.Add("TITANXP")
	f.Fuzz(func(t *testing.T, spec string) {
		fleet, err := ParseFleet(spec)
		if err != nil {
			return
		}
		if len(fleet) == 0 || len(fleet) > MaxFleetDevices {
			t.Fatalf("ParseFleet(%q) = %d devices without error", spec, len(fleet))
		}
		for i, s := range fleet {
			if s.SMs <= 0 || s.ClockHz <= 0 || s.H2DPinnedBps <= 0 || s.GlobalMemBytes <= 0 {
				t.Fatalf("ParseFleet(%q) device %d degenerate: %+v", spec, i, s)
			}
			if h := s.ServiceSecondsHint(1 << 20); h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
				t.Fatalf("ParseFleet(%q) device %d hint %v", spec, i, h)
			}
		}
	})
}
