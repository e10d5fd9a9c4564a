package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		only    string
		want    []string // ids selected
		wantErr string   // substring of the error, "" = none
	}{
		{only: "", want: figureIDs},
		{only: "fig2a", want: []string{"fig2a"}},
		{only: "fig2a, plugins ,wa", want: []string{"fig2a", "plugins", "wa"}},
		{only: strings.Join(figureIDs, ","), want: figureIDs},
		{only: "fig2e", wantErr: `unknown id "fig2e"`},
		{only: "fig2a,plugin", wantErr: `unknown id "plugin"`},
		{only: "fig2a,", wantErr: `unknown id ""`},
	} {
		got, err := parseOnly(tc.only)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), strings.Join(figureIDs, ",")) {
				t.Errorf("parseOnly(%q) error = %v, want %q and the valid set", tc.only, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseOnly(%q): %v", tc.only, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseOnly(%q) = %v, want %v", tc.only, got, tc.want)
		}
		for _, id := range tc.want {
			if !got[id] {
				t.Errorf("parseOnly(%q) = %v, missing %s", tc.only, got, id)
			}
		}
	}
}
