//! Golden proposals: the exact event times and rewiring of 64 seeded
//! proposals on a 12-tip and a 48-tip simulated tree, plus the host RNG's
//! position afterwards. Any change to how the proposer plans or draws that
//! shifts a floating-point value or the RNG consumption fails here.
//!
//! Each record is `(u1 bits, u2 bits, [target's children, parent's
//! children])`, where `u1`/`u2` are the new times of the target and its
//! parent (`f64::to_bits`).

use coalescent::CoalescentSimulator;
use lamarc::proposal::GenealogyProposer;
use mcmc::rng::Mt19937;

type Record = (u64, u64, [usize; 4]);

/// Simulate a tree from `seed`, then draw 64 proposals from it with the
/// same generator, each with a freshly sampled target.
fn replay(n_tips: usize, seed: u32, theta: f64) -> (Vec<Record>, u64) {
    let mut rng = Mt19937::new(seed);
    let tree = CoalescentSimulator::constant(1.0).unwrap().simulate(&mut rng, n_tips).unwrap();
    let proposer = GenealogyProposer::new(theta).unwrap();
    let mut records = Vec::with_capacity(64);
    for _ in 0..64 {
        let target = proposer.sample_target(&tree, &mut rng);
        let (proposal, edited) = proposer.propose_with_edit(&tree, target, &mut rng);
        let parent = edited[1];
        let (a, b) = proposal.children(target).unwrap();
        let (c, d) = proposal.children(parent).unwrap();
        records.push((
            proposal.time(target).to_bits(),
            proposal.time(parent).to_bits(),
            [a, b, c, d],
        ));
    }
    (records, rng.position())
}

fn check(n_tips: usize, seed: u32, theta: f64, golden: &[Record], position: u64) {
    let (records, end) = replay(n_tips, seed, theta);
    for (k, (got, want)) in records.iter().zip(golden).enumerate() {
        assert_eq!(got, want, "{n_tips}-tip proposal {k} differs from the golden record");
    }
    assert_eq!(records.len(), golden.len());
    assert_eq!(end, position, "{n_tips}-tip run consumed a different number of draws");
}

#[test]
fn twelve_tip_proposals_match_the_golden_records() {
    check(12, 2_112, 1.0, &GOLDEN_12, 1670);
}

#[test]
fn forty_eight_tip_proposals_match_the_golden_records() {
    check(48, 4_848, 2.0, &GOLDEN_48, 4490);
}

#[rustfmt::skip]
const GOLDEN_12: [Record; 64] = [
    (0x3fba159aa86d9a1c, 0x3fcd84b88efcf182, [17, 14, 19, 18]),
    (0x3f99f321a206b9b1, 0x3fa5067d9b07349c, [6, 5, 18, 14]),
    (0x3fbfa76cc0dcf1ae, 0x3fcf74a97deaede0, [13, 15, 16, 20]),
    (0x3f7b30d03a082332, 0x3fbacfab38fca20a, [2, 12, 13, 15]),
    (0x3f8e03528a235c55, 0x3f959a707769f479, [8, 2, 12, 9]),
    (0x3fce63d2ed9b01c2, 0x3fd5d7c8b94b0849, [16, 19, 20, 17]),
    (0x3fa4b2c44bc24d7e, 0x3fb71327a765523a, [15, 12, 13, 2]),
    (0x3fb6ca927d96d1b1, 0x3fc67b9fa593bbf0, [17, 14, 19, 18]),
    (0x3fc78e81f6e16438, 0x3fcb7c2f3a55b83c, [1, 4, 17, 19]),
    (0x3f67cdb354dec1f1, 0x3fcac391dea49a4e, [10, 11, 14, 18]),
    (0x3fc7ea4a96bddc66, 0x3fd70abf4eb22436, [19, 17, 20, 16]),
    (0x3fb3582bc2d1e2c6, 0x3fd8bc36936b5ada, [15, 13, 16, 20]),
    (0x3fa13fe922e6651b, 0x3fa19e5e19c50140, [2, 9, 12, 8]),
    (0x3f66da48506b38cf, 0x3f87cb0d754da7c8, [9, 2, 12, 8]),
    (0x3fcd811bc89e6ca6, 0x3fcfc07e346b846a, [14, 17, 19, 18]),
    (0x3f9f70e35d69b83f, 0x3fa26daf76e46d5e, [12, 2, 13, 15]),
    (0x3f759d1a951a0412, 0x3fcb7e1c5e278e7b, [4, 1, 17, 19]),
    (0x3fb39b500bd40625, 0x400121f7b62456d4, [3, 16, 21, 20]),
    (0x3f73ab8330f19746, 0x3fc7afe23c64bd5a, [10, 11, 14, 18]),
    (0x3f96e55bf81edc86, 0x3fcf4c7425503b88, [4, 1, 17, 19]),
    (0x3f644dbf292c2611, 0x3f99009739a8bbb4, [8, 9, 12, 2]),
    (0x3f9f0ac100fe2b77, 0x3fac3a67c17b7a06, [9, 2, 12, 8]),
    (0x3fa28bfc1021a1a6, 0x3fc6ed37ab9c0842, [10, 11, 14, 18]),
    (0x3fa608092cf5b83c, 0x3fca0f1dc32272e9, [11, 10, 14, 18]),
    (0x3fa22a2e3b7d6966, 0x3fc2f78a11ab2369, [11, 10, 14, 18]),
    (0x3fbc15b890c0e0fa, 0x3fcc1a660ce5d98b, [4, 1, 17, 19]),
    (0x3f9a51b77cee042c, 0x3fcb2659acb47982, [1, 4, 17, 19]),
    (0x3fb10227c2d8cbc8, 0x3fcbc62e224f6c9e, [1, 4, 17, 19]),
    (0x3fbbd521f4f934dc, 0x3fcb52db07d5aa41, [4, 1, 17, 19]),
    (0x3fb42eb7a833e071, 0x3fc433ce442a1b3c, [10, 11, 14, 18]),
    (0x3f898a2623466038, 0x3fa46025fff1a7e9, [2, 9, 12, 8]),
    (0x3fb4688f2d317dbe, 0x3fd0e713570250a0, [17, 14, 19, 18]),
    (0x3fc640d94784a281, 0x3fcf04d78edbc942, [17, 18, 19, 14]),
    (0x3fb137dd83c4c770, 0x3fb82cc7063e793c, [5, 14, 18, 6]),
    (0x3fc13c181d6d9cc0, 0x3fe08e7067552192, [16, 3, 21, 20]),
    (0x3fc2f08bd27a4fac, 0x3fce931d37d82700, [17, 18, 19, 14]),
    (0x3f9b5d7cd062170b, 0x3fb065ae60014b37, [13, 7, 15, 0]),
    (0x3f991e21dfad487c, 0x3faee841ad93db4e, [2, 12, 13, 15]),
    (0x3fb725971018828f, 0x3fbf5934cbb10f3e, [5, 6, 18, 14]),
    (0x3fc5321b3960329c, 0x3fca401d7707ea01, [11, 10, 14, 18]),
    (0x3fbe49aba693d268, 0x3fcb309bd4ba5a70, [17, 16, 20, 19]),
    (0x3fc5a376d4f3212d, 0x3fc7be3104a33952, [16, 17, 20, 19]),
    (0x3fcd7f11e382f4d2, 0x3fd7d1d7a8cb67d3, [3, 20, 21, 16]),
    (0x3fbc69dd01dfa13c, 0x3fc951ac435ba78a, [1, 4, 17, 19]),
    (0x3fc401b5de3cb5b6, 0x3fca6b35ecddcc7c, [14, 18, 19, 17]),
    (0x3fc363a27b459190, 0x3fc5d14c26986ffe, [18, 11, 14, 10]),
    (0x3fb9fe836810ba28, 0x3fcf7c2003bbe422, [14, 17, 19, 18]),
    (0x3f8ff3d2ce80619c, 0x3fa66305367b739e, [7, 0, 15, 13]),
    (0x3f9a9d87329a7403, 0x3fc3a7da71995d3a, [2, 12, 13, 15]),
    (0x3fc2dd96fb51996b, 0x3fcad3e132f0862c, [17, 14, 19, 18]),
    (0x3fc42432c7cbf8af, 0x3fd33cf1274aa9e8, [15, 13, 16, 20]),
    (0x3f964258782e771c, 0x3fbd967e271c41ae, [7, 0, 15, 13]),
    (0x3faffa1cdbe67de0, 0x3fbbdccf03deee33, [5, 14, 18, 6]),
    (0x3f76389bc100fd30, 0x3f843d0639643e1f, [2, 8, 12, 9]),
    (0x3fb30df640199577, 0x3fcd073cdfecec41, [1, 4, 17, 19]),
    (0x3fc9894d9fee5c05, 0x3fcd8bb00b2979dc, [18, 14, 19, 17]),
    (0x3f9416990d8ec847, 0x3fba14ac3a33ff03, [7, 13, 15, 0]),
    (0x3fb950fbd8dde8e6, 0x3fd429c5bac69c72, [16, 17, 20, 19]),
    (0x3fca8effc20aa9f1, 0x3fcaf3b6c1d92bd8, [17, 19, 20, 16]),
    (0x3fd2f85be6ec67d4, 0x3fd6bf48fed49d9c, [19, 17, 20, 16]),
    (0x3fc33d82887f71b4, 0x3fcf704febe34820, [14, 17, 19, 18]),
    (0x3fc38c3920cbe8ee, 0x3fd34a52dfe3ffa9, [17, 16, 20, 19]),
    (0x3fc35817b679a84e, 0x3fc75895b358ea34, [10, 11, 14, 18]),
    (0x3fd360d71cb1e066, 0x3fd7e309cb2cbf2a, [20, 15, 16, 13]),
];

#[rustfmt::skip]
const GOLDEN_48: [Record; 64] = [
    (0x3f388ef3c1526196, 0x3f549c25fde44ef2, [46, 39, 51, 37]),
    (0x3f7f06ed84e7a976, 0x3f9a7d70d5f2fa3f, [18, 21, 69, 47]),
    (0x3f8914be60345a24, 0x3fb288d617adbd5c, [1, 31, 66, 81]),
    (0x3fb1a2d0bc53ec3c, 0x3fb773a26061a053, [68, 79, 73, 54]),
    (0x3fa7b2d617a53f9c, 0x3fb4f754cdabda82, [72, 48, 81, 66]),
    (0x3fc07c700869c440, 0x3fda394fa2dd2047, [83, 78, 87, 82]),
    (0x3f96e355a8381bd7, 0x3f98aaefe4799d5b, [56, 12, 74, 38]),
    (0x3f6808421f6d1c70, 0x3fbadfb3b86dc397, [6, 42, 71, 85]),
    (0x3f72a645e826320a, 0x3f91bb1dd251c671, [54, 43, 68, 29]),
    (0x3fd7c69430fa5938, 0x3ff0a0902e9bd09c, [87, 78, 90, 93]),
    (0x3fafcb35e2b5bd71, 0x3fb151b1c84e22eb, [64, 62, 76, 25]),
    (0x3f80aa320433ae0b, 0x3fa66cda3cc00cc5, [43, 29, 68, 54]),
    (0x3f733651777ab832, 0x3f91addd2be551f6, [14, 33, 64, 62]),
    (0x3fe39d9fc5ef9809, 0x400592d59256febe, [78, 93, 90, 87]),
    (0x3fb17e2e778817ab, 0x3fb4ac235d981426, [81, 1, 66, 31]),
    (0x3fcca54b56f0093e, 0x3fcdde6fd7d17e97, [89, 15, 88, 86]),
    (0x3fc02000f82be26c, 0x3fc58458a330d347, [79, 82, 83, 73]),
    (0x3f83b8e21782606e, 0x3fa1c73afa22f623, [64, 60, 62, 58]),
    (0x3f82e4204b64d79a, 0x3f90f039d8066c88, [2, 5, 67, 10]),
    (0x3fbde9472054c71c, 0x3fc877474f0e8f57, [86, 15, 88, 89]),
    (0x3f18ed6c5714d9e1, 0x3f598193c24c32c4, [39, 46, 51, 37]),
    (0x3f97a83265a08ce2, 0x3fc061de8c1c20c8, [6, 42, 71, 85]),
    (0x3fadae09e226d4b9, 0x3fb899a1e395b782, [36, 59, 61, 50]),
    (0x3fb652ad5aaa295b, 0x3fd246f4e7e8a08e, [84, 80, 92, 91]),
    (0x3faba4a0c25f3503, 0x3fb3691858c2bdc2, [68, 54, 73, 79]),
    (0x3fc31719b7a3b1d0, 0x3fd69165d3c1a99d, [77, 70, 84, 92]),
    (0x3fb0cb2b11c4af3e, 0x3fba6879195898dc, [4, 52, 75, 57]),
    (0x3fd2219ded755b14, 0x3fd2dcc65bc93a8d, [80, 88, 91, 89]),
    (0x3fa4e0e3205ed882, 0x3fd5794fef020e9d, [76, 25, 78, 87]),
    (0x3f9e362485223768, 0x3fb6ec412474129c, [1, 31, 66, 81]),
    (0x3f80c09325f53d51, 0x3f8cd09ab8a84490, [14, 33, 64, 62]),
    (0x3f6d27a593d7c67a, 0x3f8743c29be9b474, [16, 40, 63, 32]),
    (0x3fcc146f0df37ace, 0x3fd0fbdb778795f7, [89, 15, 88, 86]),
    (0x3f95b60a5c4ea559, 0x3fa32badfb384df6, [0, 34, 57, 52]),
    (0x3fd55f6d20c45f48, 0x3ff19b543e426875, [84, 92, 93, 90]),
    (0x3fc627eeb1f57162, 0x3fca8c6a431527f5, [88, 89, 91, 80]),
    (0x3fa382a38ea5e082, 0x3fb223cda8cacc30, [32, 16, 63, 40]),
    (0x3f96528481799280, 0x3fc26ea7a641bd78, [56, 70, 77, 74]),
    (0x3fb368d13d41120d, 0x3fc23f19cdd971ac, [50, 61, 85, 71]),
    (0x3fa426ed40fe9c32, 0x3fa882e251cb66ca, [48, 19, 72, 24]),
    (0x3fd00ec8c2a9848d, 0x3fd3cf0e5758ccc6, [15, 89, 88, 86]),
    (0x3f8b49589b345424, 0x3fb0fe637b2de315, [66, 48, 81, 72]),
    (0x3fd4ae09770a37ab, 0x3fd9865caba8b7fe, [84, 80, 92, 91]),
    (0x3fa4c21781fa8bd8, 0x3fa5141f331ee788, [74, 70, 77, 56]),
    (0x3fd8a538a96fa094, 0x3fe52e836bb80b47, [80, 84, 92, 91]),
    (0x3fdace0b9722f622, 0x3ff220aec791fafa, [84, 92, 93, 90]),
    (0x3f6066150ae00ee4, 0x3f80ff1e45b50160, [28, 3, 58, 60]),
    (0x3f75c50e6b917dbd, 0x3f990d71ffea81b2, [29, 43, 68, 54]),
    (0x3fbe2f869a3fd515, 0x3fcfd5f567bb0c8e, [76, 25, 78, 87]),
    (0x3f8baf17a5a06c5c, 0x3fa40c0464e91700, [57, 9, 52, 49]),
    (0x3fa34c01565b9157, 0x3fbaf23cd2986fa2, [66, 48, 81, 72]),
    (0x3fba60ccf92fdc2c, 0x3fcd21a202d85f4a, [67, 2, 70, 77]),
    (0x3f9fdbb876137c52, 0x3fad5c7b6f3266dd, [7, 74, 56, 22]),
    (0x3fbd4e35e47b1abd, 0x3fe0f84296f97989, [78, 87, 90, 93]),
    (0x3fd30069f7810134, 0x3fe4c7eeee6051e0, [91, 84, 92, 80]),
    (0x3f7c8520426f7f34, 0x3fb1d4a322a95057, [7, 22, 56, 74]),
    (0x3fbf2225f97f176a, 0x3fc15d411957d7d1, [73, 82, 83, 79]),
    (0x3fa3071d3f49bff3, 0x3fa62f167761f635, [48, 19, 72, 24]),
    (0x3fd0fe9bc43af900, 0x3fde9c27e6e099e8, [80, 84, 92, 91]),
    (0x3fe63463dba66d23, 0x40000b3929e83d68, [93, 87, 90, 78]),
    (0x3f96d5a0113f65c6, 0x3fa0fdcf67c6b16b, [62, 33, 64, 14]),
    (0x3fc3bea842e411ae, 0x3fc57aaa3e0ff501, [78, 83, 87, 82]),
    (0x3fc1a524d9030a65, 0x3fe3063c763d7b36, [70, 77, 84, 92]),
    (0x3fca2ed5f91ef360, 0x3fd332116c6523f3, [88, 80, 91, 89]),
];
