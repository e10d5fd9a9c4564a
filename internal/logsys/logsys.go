// Package logsys is ECFault's log classification (§3.3): every framework
// log line is classified by keyword the moment the cluster emits it, lines
// matching no keyword are dropped, and the rest become the entries of the
// Coordinator's time-sorted timeline, such as the recovery timeline of
// Figure 3.
package logsys

import (
	"strings"

	"repro/internal/simclock"
)

// Entry is one classified log event.
type Entry struct {
	Time     simclock.Time
	Node     string
	Category string
	Message  string
}

// Categories used across the framework.
const (
	CatDecoding  = "decoding"
	CatFailure   = "failure"
	CatRecovery  = "recovery"
	CatHeartbeat = "heartbeat"
	CatPeering   = "peering"
	CatIO        = "io"
	CatOther     = "other"
)

// keywords covers the keyword set the paper lists (decoding, failure,
// recovery, ...) plus the checking-period events of Figure 3, in priority
// order: a line takes the category of the first row with a keyword it
// contains, so the more specific category wins when several match.
var keywords = []struct {
	cat   string
	words []string
}{
	{CatRecovery, []string{"recovery", "recovered", "backfill"}},
	{CatDecoding, []string{"decode", "decoding"}},
	{CatFailure, []string{"failure", "failed", "down"}},
	{CatPeering, []string{"peering", "missing", "queueing"}},
	{CatHeartbeat, []string{"heartbeat"}},
	{CatIO, []string{"iostat", "read", "write"}},
}

// Classify returns the category of a log line, CatOther if no keyword
// matches.
func Classify(line string) string {
	lower := strings.ToLower(line)
	for _, row := range keywords {
		for _, kw := range row.words {
			if strings.Contains(lower, kw) {
				return row.cat
			}
		}
	}
	return CatOther
}
