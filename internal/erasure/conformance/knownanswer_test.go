package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/erasure"
	"repro/internal/gf256"
)

// knownAnswers pins the parity bytes Encode writes, as the SHA-256 of the
// parity shards in order, for seeded data: one shape of every registered
// plugin, and Clay on a full grid, the paper's shape and a shortened grid
// at sub-chunks of 1 and 51 bytes (the word tiers' padded detour), 816 and
// 12,952 bytes (codec_stripe's 64 KiB and 1 MiB clay(12,9,11) shards) and
// 2,048 bytes (Clay's repair gate). The hashes do not depend on which
// formulation Clay runs, so a change of formulation, gate or kernel that
// moves a parity byte fails here.
var knownAnswers = []struct {
	plugin   string
	k, m, d  int
	subChunk int // bytes per sub-chunk: a shard is subChunk * alpha bytes
	sha256   string
}{
	{"jerasure_reed_sol_van", 9, 3, 0, 4101, "4e0782fbdaf3754204d550469e7a9a84483a686c76621f3ec076b778ab22d1e5"},
	{"jerasure_cauchy_orig", 4, 2, 0, 4101, "427d5b502bee243e61415c3f2c07e54b2ba845e01d9b1bdb3188e61f045840a5"},
	{"isa_reed_sol_van", 6, 3, 0, 4101, "d36c2b11ea79eaf1c4e8f3ab1e3bfe3c6d9c22919c8e98b92a116275c1bf994f"},
	{"lrc", 8, 2, 2, 4101, "9145d1f918a90f94ee7e054cabdc0ecbdd4dd69b78bc69f803d892c64f978050"},
	{"shec", 6, 4, 2, 4101, "902a48d183381978fbbdd48eeb446711e926041baeaebaef3bb08695c22fd744"},
	{"clay", 4, 2, 5, 1, "ede95bd6150bf505decd9d5b0ce7d780f318d26bac5c6b1658afbf751033a7d2"},
	{"clay", 4, 2, 5, 51, "d8983ac5f1cd5c8cd4e60c46b9e962807f5562fe4929eb9064bb916d5df1f167"},
	{"clay", 4, 2, 5, 816, "b54be5430c82d0f4a68bcad9a2ae0ce4175811dcd54f4a4b4f405b2ed9bacb90"},
	{"clay", 4, 2, 5, 2048, "b75f6e232cd13623886bc7d9cf7ee08ec66c9f6c0bed48ae91a0e550581d1ffa"},
	{"clay", 4, 2, 5, 12952, "6223c444cc7165b9acd6d373dfb27826e66576c3a0d233cf60cddd264522a546"},
	{"clay", 9, 3, 11, 1, "ca407467a38c9a1b9ed5661af0c2ddae6a1c70dd0bd712ec33de38357cc21cdf"},
	{"clay", 9, 3, 11, 51, "9b0af83d8c936fb038ac5ccb2c0595f738469df0d5304fe43bd28ede85e35b7e"},
	{"clay", 9, 3, 11, 816, "74fab16b30b5901dbb55986d72c5922df737db70f771d5fd7936a6703572f6eb"},
	{"clay", 9, 3, 11, 2048, "757cd3dffe561cd84bc452c757198f09a0b3811064ced3c9e3cefa44fd448626"},
	{"clay", 9, 3, 11, 12952, "3390492b35179fae487dd917f65cc5e3eca0edc9773cc0e484a6330709330315"},
	{"clay", 4, 3, 6, 1, "f526f173757ddeeaeee289c520e853c0a589211be24fe1ccbaaef7a09918102e"},
	{"clay", 4, 3, 6, 51, "95527dff46b3f17d85dda6a888340652eeebae0dbceb4cbe250f690a5b6b0eb4"},
	{"clay", 4, 3, 6, 816, "0f6502eb5f31c8e9ee61e209fdb598d8a6c905f950f35f8c0ba3eb2faca63777"},
	{"clay", 4, 3, 6, 2048, "4fcfbcfe1a44460d687707fae2081aeeb0d116a610e71bc10ce2dfc80965df20"},
	{"clay", 4, 3, 6, 12952, "ac4ff0e55dbc5b5e65db46c83e4dede57e17a5025f7b5c2cb5c165f08987b317"},
}

// TestEncodeKnownAnswers encodes each known-answer case on every gf256
// backend and compares the parity's hash with the pinned one.
func TestEncodeKnownAnswers(t *testing.T) {
	pinned := map[string]bool{}
	for _, ka := range knownAnswers {
		pinned[ka.plugin] = true
	}
	for _, p := range erasure.Plugins() {
		if !pinned[p] {
			t.Errorf("plugin %q has no known answer", p)
		}
	}
	for _, ka := range knownAnswers {
		code, err := erasure.New(ka.plugin, ka.k, ka.m, ka.d)
		if err != nil {
			t.Fatalf("%s(k=%d,m=%d,d=%d): %v", ka.plugin, ka.k, ka.m, ka.d, err)
		}
		size := ka.subChunk * code.SubChunks()
		rng := rand.New(rand.NewSource(int64(ka.k*1_000_000 + ka.m*100_000 + ka.subChunk)))
		data := make([][]byte, code.K())
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		for _, backend := range gf256.Backends() {
			shards := encodeUnder(t, code, backend, data, 0)
			h := sha256.New()
			for _, p := range shards[code.K():] {
				h.Write(p)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != ka.sha256 {
				t.Errorf("%s(k=%d,m=%d,d=%d) sub-chunk %d B on %s: parity sha256 %s, want %s",
					ka.plugin, ka.k, ka.m, ka.d, ka.subChunk, backend, got, ka.sha256)
			}
		}
	}
}
