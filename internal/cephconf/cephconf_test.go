package cephconf

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

const sample = `
# cluster tuning for the stripe-unit study
[global]
osd pool default pg num = 256
osd_pool_erasure_code_stripe_unit = 4M   ; binary units
erasure_code_plugin = clay
erasure_code_k = 9
erasure_code_m = 3
erasure_code_d = 11

[osd]
osd_max_backfills = 2
mon_osd_down_out_interval = 300
bluestore_cache_kv_ratio = 0.70
bluestore_cache_meta_ratio = 0.20
bluestore_cache_data_ratio = 0.10
`

func TestParseBasics(t *testing.T) {
	cfg, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cfg.Get("global", "osd_pool_default_pg_num"); !ok || v != "256" {
		t.Fatalf("pg_num: %q %v", v, ok)
	}
	// Spaces and dashes normalize to underscores; keys are
	// case-insensitive.
	if v, ok := cfg.Get("GLOBAL", "OSD POOL DEFAULT PG NUM"); !ok || v != "256" {
		t.Fatalf("normalized lookup: %q %v", v, ok)
	}
	// Section fallback: osd-specific key, then global.
	if v, ok := cfg.Get("osd", "erasure_code_plugin"); !ok || v != "clay" {
		t.Fatalf("fallback: %q %v", v, ok)
	}
	if v, ok := cfg.Get("osd", "osd_max_backfills"); !ok || v != "2" {
		t.Fatalf("osd section: %q %v", v, ok)
	}
	// Inline comments stripped.
	if v, _ := cfg.Get("global", "osd_pool_erasure_code_stripe_unit"); v != "4M" {
		t.Fatalf("inline comment not stripped: %q", v)
	}
	if len(cfg.sections) != 2 {
		t.Fatalf("sections: %v", cfg.sections)
	}
	if len(cfg.sections["osd"]) != 5 {
		t.Fatalf("osd keys: %v", cfg.sections["osd"])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"[unterminated\nkey = val",
		"[]\n",
		"just a line without equals\n",
		"= value\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); !errors.Is(err, ErrSyntax) {
			t.Errorf("input %q: err = %v", bad, err)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"4096": 4096,
		"4K":   4096,
		"4k":   4096,
		"4M":   4 << 20,
		"64M":  64 << 20,
		"1G":   1 << 30,
		" 2 M": 2 << 20,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// Negative sizes and products past int64 used to come back as
	// (-4096, nil) and (-7709325834783293440, nil).
	for _, bad := range []string{"", "x", "4X4", "M", "-4K", "-1", "9999999999G", "9223372036854775807K"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestApplyProfile(t *testing.T) {
	cfg, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.ApplyProfile(core.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if p.Pool.Plugin != "clay" || p.Pool.K != 9 || p.Pool.M != 3 || p.Pool.D != 11 {
		t.Fatalf("pool: %+v", p.Pool)
	}
	if p.Pool.PGNum != 256 || p.Pool.StripeUnit != 4<<20 {
		t.Fatalf("pg/stripe: %+v", p.Pool)
	}
	if p.Tuning.MaxBackfills != 2 || p.Tuning.MarkOutIntervalSeconds != 300 {
		t.Fatalf("tuning: %+v", p.Tuning)
	}
	if p.Backend.CustomRatios == nil || p.Backend.CustomRatios.KVRatio != 0.70 {
		t.Fatalf("cache ratios: %+v", p.Backend)
	}
}

func TestApplyProfileAutotune(t *testing.T) {
	cfg, _ := Parse(strings.NewReader("[osd]\nbluestore_cache_autotune = true\n"))
	p, err := cfg.ApplyProfile(core.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend.CacheScheme != core.SchemeAutotune || p.Backend.CustomRatios != nil {
		t.Fatalf("autotune: %+v", p.Backend)
	}
}

func TestApplyProfileRejectsBadValues(t *testing.T) {
	cfg, _ := Parse(strings.NewReader("[global]\nosd_pool_default_pg_num = lots\n"))
	if _, err := cfg.ApplyProfile(core.DefaultProfile()); err == nil {
		t.Fatal("malformed int accepted")
	}
	// A config that produces an invalid profile fails validation.
	cfg, _ = Parse(strings.NewReader("[global]\nerasure_code_k = 0\n"))
	if _, err := cfg.ApplyProfile(core.DefaultProfile()); err == nil {
		t.Fatal("invalid resulting profile accepted")
	}
	// A negative cache ratio would give negative cache-hit fractions.
	cfg, _ = Parse(strings.NewReader("[osd]\nbluestore_cache_kv_ratio = -0.5\n"))
	if _, err := cfg.ApplyProfile(core.DefaultProfile()); !errors.Is(err, core.ErrInvalidProfile) || !strings.Contains(err.Error(), "custom_ratios kv") {
		t.Fatalf("negative kv ratio: err = %v", err)
	}
}

// TestApplyProfileReportsFirstBadKey: with two malformed options the
// error names the one that sorts first, on every call.
func TestApplyProfileReportsFirstBadKey(t *testing.T) {
	cfg, err := Parse(strings.NewReader("[global]\nosd_pool_default_pg_num = y\nosd_max_backfills = x\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := cfg.ApplyProfile(core.DefaultProfile()); err == nil || !strings.Contains(err.Error(), "osd_max_backfills") {
			t.Fatalf("call %d: err = %v, want one naming osd_max_backfills", i, err)
		}
	}
}

func TestUnknownKeysIgnored(t *testing.T) {
	cfg, _ := Parse(strings.NewReader("[global]\nrgw_frontends = beast port=8080\n"))
	if _, err := cfg.ApplyProfile(core.DefaultProfile()); err != nil {
		t.Fatalf("unknown key should be ignored: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/ceph.conf"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzParseApply drives the whole INI input surface — Parse, then the
// overlay onto the paper-default profile with its validation — with
// arbitrary text: a configuration is rejected or accepted, never a panic,
// and an accepted one is a valid profile whose sizes are non-negative.
func FuzzParseApply(f *testing.F) {
	f.Add(sample)
	// The package comment's example.
	f.Add("[global]\nosd_pool_default_pg_num = 256\nbluestore_cache_kv_ratio = 0.55\nbluestore_cache_meta_ratio = 0.35\n\n[osd]\nosd_max_backfills = 1\n")
	for _, size := range []string{"9999999999G", "-4K", "4M"} {
		f.Add("[global]\nosd_pool_erasure_code_stripe_unit = " + size + "\nbluestore_min_alloc_size = " + size + "\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		p, err := cfg.ApplyProfile(core.DefaultProfile())
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ApplyProfile accepted a profile Validate rejects: %v", err)
		}
		if p.Pool.StripeUnit <= 0 || p.Backend.MinAllocSize < 0 {
			t.Fatalf("accepted sizes: stripe_unit=%d min_alloc_size=%d", p.Pool.StripeUnit, p.Backend.MinAllocSize)
		}
	})
}
