package palu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/xrand"
)

// histDigest is the SHA-256 of h's sorted "degree count" lines.
func histDigest(h *hist.Histogram) string {
	s := sha256.New()
	for _, d := range h.Support() {
		fmt.Fprintf(s, "%d %d\n", d, h.Count(d))
	}
	return hex.EncodeToString(s.Sum(nil))
}

// samplerPin is what one Section V sampler leaves behind for one case:
// the digest of each output histogram and the RNG's next Uint64.
type samplerPin struct {
	hists []string
	next  uint64
}

// TestSectionVDrawOrderPinned pins the draw order of the three Section V
// samplers. Every figure built from FastObservedHistogram,
// FastDirectedHistograms or FastWeightedHistograms depends on which
// variate each draw consumes, so a reordered draw (or one draw more or
// fewer) changes a digest or the next Uint64 here before it changes the
// committed out/.
func TestSectionVDrawOrderPinned(t *testing.T) {
	type pcase struct {
		seed                      uint64
		wc, wl, wu, lambda, alpha float64
		p                         float64
		observed                  samplerPin
		directed                  samplerPin // Total, In, Out
		weighted                  samplerPin // Degree, PacketDegree, LinkWeight
	}
	// Recorded from the three samplers' own draw loops, before they were
	// folded into sampleObserved.
	cases := []pcase{
		{11, 2, 2, 1.5, 2.5, 2, 0,
			samplerPin{[]string{
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}, 0x5a942e9ea8a0bd14},
			samplerPin{[]string{
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}, 0x5a942e9ea8a0bd14},
			samplerPin{[]string{
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}, 0x5a942e9ea8a0bd14}},
		{11, 2, 2, 1.5, 2.5, 2, 0.3,
			samplerPin{[]string{
				"122678df57439bffe46cfb7db9f7a0f85c6809a1f76e8410fcbef1098a465e29"}, 0xee30b84e789ec01},
			samplerPin{[]string{
				"8163696b2eac00c525ad6b406ca293e3d8bcbfbb520f25137b6be79957374745",
				"3161ac6dadf2ea923b4236945187173106d8ba858eaffa2dd1222b76a05b66f3",
				"745cf1333d40654761716a497e8aee998ba1817ab35730203d480b65ae1ec77c"}, 0x48edff4ff94826af},
			samplerPin{[]string{
				"3a7aaeb955795f10b6e9a81881f40737cf38680c78b91ddb08865704c2a321c3",
				"572591e07ae561ea772a669650fd106714beb3bd16107aa990558a16c53ff5a6",
				"2dbe924621bcdbbf3e1c69efc2ef18e3f6c24d9f7c7c12016b09bdfcfc82186d"}, 0x40e5a31c9fdd0339}},
		{11, 2, 2, 1.5, 2.5, 2, 0.7,
			samplerPin{[]string{
				"91bb9fda01eea3b476c1d41b0ca068ec2d3733efa9e4d6009d18072c2c87353a"}, 0xe8ab1a82132039ec},
			samplerPin{[]string{
				"051f081bb60e3943ee5c32ee8c3c5c18f2ef3faf38150c86a4118bbc5dce7bf1",
				"4804d3ec379bd25b6e960da0745bbf0ce06f5309137b1c24049767b69306a831",
				"c5c42199116e8dccf993a124447717fdd117b60f34f7f2281e0e70556193e46d"}, 0xa434f6b6ac342233},
			samplerPin{[]string{
				"3774ab9673a798884ab6055a401ba9ddc566f8f74292cee33868d21a64b72c7d",
				"9167111c258a13d127e74ce72280a098e32543f21ed651c0f0ec9e6bc3218eb1",
				"c077dcebfd5e000c8ee658a80910f29c66d08836fbcb5e5cd7e2ef0be70de569"}, 0x6fae448c2a28997f}},
		{11, 2, 2, 1.5, 2.5, 2, 1,
			samplerPin{[]string{
				"e31e03fe124c1e9033e757f01b1094fa0b260128aff22339bf8b1ef346c6681a"}, 0xcb28e3c49ede40a6},
			samplerPin{[]string{
				"4e8064a2843cc623992ed7f614860a8ba00c933adec7c4be86b1f7ec7313a5da",
				"5c0017fdbc0fda5fc618c60fb37da16aa0cb0049bf2f5df59d1c53d3f79011c2",
				"d07b4f7edd6a1f3c2621b682b79137f032de8278786f191499cead93938045f7"}, 0x67f51658c7e0e147},
			samplerPin{[]string{
				"fdd8fe2155597801502eb9febb4b1588d38bf47bcb01fe31e8a0c913231d405d",
				"00b63731f66bab3473acc084995667321699b8a0350cd35bc7ab027d3240b606",
				"1a43bcb959861a44233b25f00c52c53f2f6879872d63dbddd827e27ad3c2e03b"}, 0xfdba6e30924c8134}},
		{29, 3, 1, 2, 4, 1.7, 0,
			samplerPin{[]string{
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}, 0x2836f7f4bf2ee74e},
			samplerPin{[]string{
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}, 0x2836f7f4bf2ee74e},
			samplerPin{[]string{
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}, 0x2836f7f4bf2ee74e}},
		{29, 3, 1, 2, 4, 1.7, 0.3,
			samplerPin{[]string{
				"39ed99e319e3dee693297fa764ba983e73e41add2ff5bf9d56c0f2117b9c79fc"}, 0xd40996b74ac3ce19},
			samplerPin{[]string{
				"6a1bc8e44b92d0172c243f9291332fcb0fabce692749fbf8d6ac5e8738202a43",
				"d717ffc74c57d927d62cab89a83af5efa84e2a13d7098e69298d5a7739fbe759",
				"ca440acd7c5dbd0423d75186e6edf7b289c0c8284432dc4c862ff82186d92205"}, 0x4646750501383a54},
			samplerPin{[]string{
				"946fe1ffe6187a948498d77207640891cefa2ec870b94e15016e37d82e7fff66",
				"11a79fdd07458b53755199d8521509f09d5eac9fc90f27e96e86801913ea4353",
				"b94d290d146a931c912b5362a6229801fa051f88e7b8114e3e98bce6aebedcb3"}, 0x3b73cd9b52f57664}},
		{29, 3, 1, 2, 4, 1.7, 0.7,
			samplerPin{[]string{
				"b11bdd7de446a99a9210a6fdf7dbf32f63c777b26a66b109e4ba74cf2721e607"}, 0xf5d92d64829eb56b},
			samplerPin{[]string{
				"0d8b9d27fb14be19b9013bd0605a13331535054836c215e0655e0f2ab34fd69c",
				"c5ec7acfbc9995abbf6d1c53e25a37436979ee142989f9c4f1220e497c4ab370",
				"7d32738e85926ec6b9e059a60e38c277622e8d10dc980dcc3d61f9eaa0dc243d"}, 0x2826310f10b88cb5},
			samplerPin{[]string{
				"d48079fb4602d1b939353aed155c69f10de9a26a1814be44c8510f1036810291",
				"af0f47308e298d684df3ee287ddb4db8b1658abb5de65c8360800d32c3aada14",
				"a2e79afae62bbb87f7838d5922df8b1af0a4ad100bef04cdf2b6e65a2656d164"}, 0x3e29cb178e06879a}},
		{29, 3, 1, 2, 4, 1.7, 1,
			samplerPin{[]string{
				"6740420af7add5cd02c7335dc4951f4c4de2c71c4bb9a4702425d441ff12e738"}, 0xf65e5455b678e66a},
			samplerPin{[]string{
				"428d75c9588e6588ec224f67b1f46977e595ea79f3c909b61451398d9529292b",
				"69fe0a7a5a238856152e79f4696d8bad4cb4226d20eafcc02848c3bc7429cffe",
				"cbf512970b0f075708b4701fe8e68739c34cd00a22fe14287379a097ada4b8c3"}, 0x77544d868917d0cb},
			samplerPin{[]string{
				"8712ca748f0e16cd08a40db6aac22e27a6118a0e2e84f617279037af58aff4e2",
				"2f48d0c2ff5a02fb74eea51382a2f77dfd8eeb5ea2bb87277065f3e4142628c1",
				"e19a99df3ab040a29fa4e7384a5f44c5cbf19ea1f6718cb6eab94b5495365225"}, 0x70f6da2eb1962f60}},
	}
	const n = 4000
	const q = 0.35
	wm := WeightModel{Alpha: 2.2, Delta: -0.5, MaxWeight: 512}
	for _, c := range cases {
		name := fmt.Sprintf("seed%d/p%g", c.seed, c.p)
		params, err := FromWeights(c.wc, c.wl, c.wu, c.lambda, c.alpha)
		if err != nil {
			t.Fatal(err)
		}

		rng := xrand.New(c.seed)
		h, err := FastObservedHistogram(params, n, c.p, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, name+"/observed", c.observed, rng, h)

		rng = xrand.New(c.seed)
		dh, err := FastDirectedHistograms(params, n, c.p, q, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, name+"/directed", c.directed, rng, dh.Total, dh.In, dh.Out)

		rng = xrand.New(c.seed)
		wh, err := FastWeightedHistograms(params, n, c.p, wm, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, name+"/weighted", c.weighted, rng, wh.Degree, wh.PacketDegree, wh.LinkWeight)
	}
}

func checkPin(t *testing.T, name string, want samplerPin, rng *xrand.RNG, hs ...*hist.Histogram) {
	t.Helper()
	got := samplerPin{next: rng.Uint64()}
	for _, h := range hs {
		got.hists = append(got.hists, histDigest(h))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: got %#v, want %#v", name, got, want)
	}
}
