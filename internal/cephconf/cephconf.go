// Package cephconf reads Ceph-style INI configuration files and maps the
// options the paper studies (Table 1) onto an experiment Profile. It
// accepts the familiar surface —
//
//	[global]
//	osd_pool_default_pg_num = 256
//	bluestore_cache_kv_ratio = 0.55
//	bluestore_cache_meta_ratio = 0.35
//
//	[osd]
//	osd_max_backfills = 1
//
// — so configurations can be expressed the way operators actually write
// them, including '#' and ';' comments, case-insensitive keys, and
// size suffixes (4K, 4M, 64M) for byte-valued options.
package cephconf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bluestore"
	"repro/internal/core"
)

// ErrSyntax wraps parse failures with line information.
var ErrSyntax = errors.New("cephconf: syntax error")

// Config is a parsed INI file: section -> key -> value. Keys are
// normalized to lowercase with underscores.
type Config struct {
	sections map[string]map[string]string
}

// Parse reads a configuration from r.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{sections: map[string]map[string]string{}}
	section := "global"
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || line[0] == '#' || line[0] == ';' {
			continue
		}
		if line[0] == '[' {
			end := strings.IndexByte(line, ']')
			if end < 0 {
				return nil, fmt.Errorf("%w: line %d: unterminated section", ErrSyntax, lineNo)
			}
			section = normalizeKey(line[1:end])
			if section == "" {
				return nil, fmt.Errorf("%w: line %d: empty section name", ErrSyntax, lineNo)
			}
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("%w: line %d: expected key = value", ErrSyntax, lineNo)
		}
		key := normalizeKey(line[:eq])
		value := strings.TrimSpace(line[eq+1:])
		if i := strings.IndexAny(value, "#;"); i >= 0 {
			value = strings.TrimSpace(value[:i])
		}
		if key == "" {
			return nil, fmt.Errorf("%w: line %d: empty key", ErrSyntax, lineNo)
		}
		if cfg.sections[section] == nil {
			cfg.sections[section] = map[string]string{}
		}
		cfg.sections[section][key] = value
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Load parses a configuration file from disk.
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

func normalizeKey(s string) string {
	s = strings.TrimSpace(strings.ToLower(s))
	return strings.ReplaceAll(strings.ReplaceAll(s, " ", "_"), "-", "_")
}

// Get looks a key up in a section, falling back to [global].
func (c *Config) Get(section, key string) (string, bool) {
	key = normalizeKey(key)
	if v, ok := c.sections[normalizeKey(section)][key]; ok {
		return v, true
	}
	v, ok := c.sections["global"][key]
	return v, ok
}

// ParseSize parses a byte size with optional K/M/G suffix (binary units,
// as Ceph uses).
func ParseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	if s == "" {
		return 0, fmt.Errorf("cephconf: empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cephconf: bad size %q: %w", s, err)
	}
	if v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("cephconf: size %q is negative or overflows int64", s)
	}
	return v * mult, nil
}

// ApplyProfile overlays the recognized options onto a profile. Unknown
// keys are ignored (Ceph has thousands); recognized keys with malformed
// values error.
func (c *Config) ApplyProfile(p core.Profile) (core.Profile, error) {
	type handler func(val string) error
	intField := func(dst *int) handler {
		return func(val string) error {
			v, err := strconv.Atoi(val)
			if err != nil {
				return err
			}
			*dst = v
			return nil
		}
	}
	floatField := func(dst *float64) handler {
		return func(val string) error {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return err
			}
			*dst = v
			return nil
		}
	}
	sizeField := func(dst *int64) handler {
		return func(val string) error {
			v, err := ParseSize(val)
			if err != nil {
				return err
			}
			*dst = v
			return nil
		}
	}

	// A ratio the file leaves out keeps the autotuned scheme's.
	ratios, ratiosSet := bluestore.CacheAutotune, false
	ratios.Autotune = false
	ratioField := func(dst *float64) handler {
		return func(val string) error {
			ratiosSet = true
			return floatField(dst)(val)
		}
	}
	autotune := ""

	handlers := map[string]handler{
		"osd_pool_default_pg_num":           intField(&p.Pool.PGNum),
		"osd_pool_erasure_code_stripe_unit": sizeField(&p.Pool.StripeUnit),
		"osd_max_backfills":                 intField(&p.Tuning.MaxBackfills),
		"osd_recovery_max_active":           intField(&p.Tuning.RecoveryMaxActive),
		"mon_osd_down_out_interval":         floatField(&p.Tuning.MarkOutIntervalSeconds),
		"bluestore_cache_kv_ratio":          ratioField(&ratios.KVRatio),
		"bluestore_cache_meta_ratio":        ratioField(&ratios.MetaRatio),
		"bluestore_cache_data_ratio":        ratioField(&ratios.DataRatio),
		"bluestore_min_alloc_size":          sizeField(&p.Backend.MinAllocSize),
		"erasure_code_plugin": func(val string) error {
			p.Pool.Plugin = val
			return nil
		},
		"erasure_code_k": intField(&p.Pool.K),
		"erasure_code_m": intField(&p.Pool.M),
		"erasure_code_d": intField(&p.Pool.D),
		"crush_failure_domain": func(val string) error {
			p.Pool.FailureDomain = val
			return nil
		},
		"bluestore_cache_autotune": func(val string) error {
			autotune = val
			return nil
		},
	}
	// Keys in sorted order, so a file with several malformed options
	// always reports the same one.
	keys := make([]string, 0, len(handlers))
	for key := range handlers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		// osd section wins over global for osd_* keys; everything else
		// reads global directly via Get's fallback.
		if val, ok := c.Get("osd", key); ok {
			if err := handlers[key](val); err != nil {
				return p, fmt.Errorf("cephconf: option %s: %w", key, err)
			}
		}
	}
	switch {
	case autotune == "true" || autotune == "1":
		p.Backend.CacheScheme = core.SchemeAutotune
		p.Backend.CustomRatios = nil
	case ratiosSet:
		p.Backend.CacheScheme = ""
		p.Backend.CustomRatios = &ratios
	}
	return p, p.Validate()
}
