// Package conformance is a reusable compliance suite for erasure.Code
// implementations: encode/decode round trips, single- and multi-failure
// repair, plan/IO consistency, and the read-only-planned-sub-chunks
// contract. Every plugin in this repository runs it; a new code
// implementation passes by construction or fails loudly.
package conformance
