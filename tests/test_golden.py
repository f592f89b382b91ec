"""Golden CLI output: the sha256 of stdout and the exit code of fast commands.

The digests were recorded before the permutation kernel moved to
``operator.itemgetter``, the refuted witness pairs and ``criterion
--group S4`` before the scans moved to one class partition, and ``ppd 43
17`` and ``ppd 2 89`` before ``_ppd_primes`` moved to the shaped rho, and
the M12, psl2:11 and M11 scans before centralizers were swept from the
scan's element list; any change to the bytes a command prints fails here.
``criterion --group A6`` and ``criterion --group psl2:11`` exit 1 by
design (neither group is solvable), and so do the two refuted pairs, whose
counterexamples generate solvable subgroups of orders 24 and 21.
The tsv entries and the ``--help`` texts were recorded before the
commands began to return their output for ``main`` to render, and
``criterion --group M11`` (exit 1, counterexample classes (1, 8)) before
the counterexample recheck ran through the scan core, and ``criterion
--group M12`` (exit 1, counterexample classes (1, 13)) before the recheck
gave each verdict to the cells its generator moves reach.  ``alt-pair``
6, 10 and 16 were recorded while ``alternating_pair`` still read its pairs
for m <= 16 from hard-coded windows.  ``ppd 9 23``, ``ppd 49 17 --large``
and ``ppd 32 19 --basic`` were recorded before Phi_e(p^k) was split into
its pieces Phi_ed(p) for factoring.
Commands run in-process through ``cli.main`` to keep the set fast.
"""

import hashlib

import pytest

from solvcrit.cli import main

GOLDEN = [
    ("classes --group M11", "text", 0,
     "fbf3edc2b37eecc246664150ff63f9f7b773984f3bf0be1083c30280ce2a90ea"),
    ("classes --group M11", "json", 0,
     "0841973f494770c158c03d6fd6fb4635b3c982bf6b51bd64da38ef767ad0e91a"),
    ("criterion --group A6", "text", 1,
     "2fd5b2704d2d08f7afba9db409e0b9a3a83ffd36e12ccb842c4d89527dc9a5f0"),
    ("criterion --group A6", "json", 1,
     "846e3fd10195ac5b3fa7da2ec5973e088ae9813db0ac1a6ff6cd824cbe069c71"),
    ("witness verify 2 11 --group M11", "text", 0,
     "5bc22a921c31bcd7b57edfc424a9de636c4b3297d77d534a12fb94755f2c7ad8"),
    ("witness verify 2 11 --group M11", "json", 0,
     "f976a89a097891d7e13c252123f5543e3ce08f7002d01f09bc0a279107e2843e"),
    ("witness search --group A7 --primes", "text", 0,
     "61ba9061f5537ede2d0708cf767978468db9f13c5f04a391df0c45a4aad68524"),
    ("witness search --group A7 --primes", "json", 0,
     "423b077a54c72db6bd9ada844d10fa3df1703f9551ef086f4e1ba0704a3e3fe4"),
    ("zsigmondy-scan 32 20", "text", 0,
     "8da7e229ac13160e0ba3e6e0d98a4f907f097a96dadd7c5c503b59e669661e7e"),
    ("zsigmondy-scan 32 20", "json", 0,
     "82f925a73e2c6842ab5d391e407b930d5e4c0fc6edc73c946c4d164ed1e6b876"),
    ("ppd 2 96", "text", 0,
     "e24b4a17c401c992eabfed80168f282094e12ea85034a789da478d14290d8b60"),
    ("ppd 2 96", "json", 0,
     "f891b94692fff9179f505ec877c8b14bfa9d433f3304fb5c460b3f669b14ffe2"),
    ("ppd 43 17", "text", 0,
     "486f601726494bd4127305218ca27a1101567fcea9ac0b9dfc9fd846201ef754"),
    ("ppd 43 17", "json", 0,
     "46ebc2b3c87e96a0f47236ba4a6466398182a50bf8243196dee800b4fd2a09e2"),
    ("ppd 43 17 --basic --large", "text", 0,
     "96a1ba4a12d4fe72dbe1ca86f29dc68d248d9f13aef530ff1804a71a2f9cda1f"),
    ("ppd 43 17 --basic --large", "json", 0,
     "751b6ce343e114ac9d3098aab58228e972ab28a1ade4a33b2bdd4527313cb27b"),
    ("ppd 2 89", "text", 0,
     "89ad29ce00bf05bf134572f9f2359278cddb4abf79b7ce487538de2d9f9486dd"),
    ("ppd 2 89", "json", 0,
     "0a31e154573f5e4fc3ca67879beeae2be321717af7664275529784b7289f7789"),
    ("ppd 9 23", "text", 0,
     "4482e26457188a282632b3e0e32f0c410d6e98d6d47a4799eab04465480f469f"),
    ("ppd 9 23", "json", 0,
     "60a439db5d3f0d36b393417c471e70d80e9f1d6ee770b9caa6e92befb20d0881"),
    ("ppd 49 17 --large", "text", 0,
     "f0d33be323adfa4af9f8a8894877e1c879ecc4498161e2a6dad2555201d4b61c"),
    ("ppd 49 17 --large", "json", 0,
     "ecd8c0fdb790d00d9128691ace52330f47d35b2851b3f3363857c24ae682024f"),
    ("ppd 32 19 --basic", "text", 0,
     "472316612d9bb3bf26a3b92885a7e612ecf8ccadefd181e0eb9cf1a0eab8c864"),
    ("ppd 32 19 --basic", "json", 0,
     "e9791fd0d74aa3ccb32a564bd8d5593a49444262286a5f812260b441446d3ae3"),
    ("classes --group C1", "text", 0,
     "fd7b7d28f7ca5f63b1b8745b42ee657a128f9d17cb1380678bfda03962ed3ede"),
    ("classes --group C1", "json", 0,
     "c9716bb9ff923c7246e8cbe6cab2ae76ba8c6aac1faf3035ffff302f3050dc7a"),
    ("criterion --group C1", "text", 0,
     "50a1372d3c18879583b988372fdea0c62ae3aaedecdc02b905b12a0c9673a6a0"),
    ("criterion --group C1", "json", 0,
     "1290f3fdb92724799c5869c4dede7990eaea6c2b826d872edd8fe3ebbb74eff6"),
    ("solvable --group C1", "text", 0,
     "ac6b6cc9771cc18c7756d7870aaac118c675b330ccb550fb3e84db22892ee01a"),
    ("solvable --group C1", "json", 0,
     "351939c8f38bf2c3d7da6b988be936b4862be4bd074eecc6c69075b4c439fe21"),
    ("criterion --group D2", "text", 0,
     "69cc3cb349fcdce1ed2f8cd2fa887ff510901422d6e53cb6ddd11e905b07a3ba"),
    ("criterion --group D2", "json", 0,
     "1dad5b836c92a6c28dd3f2bb020afe19782683469cedaab53689d8b6f6c6a18f"),
    ("witness verify 4 3 --group psl2:7", "text", 1,
     "d633087cd92c055462f49fb2b2e8860892ac41ae25a5073ad2a7c402dd8545db"),
    ("witness verify 4 3 --group psl2:7", "json", 1,
     "aa8a60a76d813ea09587dbe29c5d5462b7c091bd6f04df4a1e8d84fe28d598ab"),
    ("witness verify 3 7 --group A7", "text", 1,
     "4078a1954073dbbcdffa427faad2e20417b627c6ff64b10fb39491a5964d23e6"),
    ("witness verify 3 7 --group A7", "json", 1,
     "fae9d609ca64cf93a7a768a139513399e73a197f75d9e011adc5fe802ed59a02"),
    ("criterion --group S4", "text", 0,
     "0dcd85b6b5c09d90ccad86b1efbd49c0bf8a43add535a7e99ecfe3b002e5fc26"),
    ("criterion --group S4", "json", 0,
     "a32e766d7eb882e2f68fa253cd355440c2081d183b3f655bc0172a9dbed09937"),
    ("witness verify 2 11 --group M12", "json", 0,
     "16daff72f784586e58e1289134fe9337036ccc920b2b262babff814d3dbe5c07"),
    ("criterion --group psl2:11", "text", 1,
     "22ae013cb25caba2e0bcdf34ce5c31b8a75870c800d1a09be521d3f76e4c1ecc"),
    ("witness search --group M11 --primes", "text", 0,
     "681895b5c3654e7f6e7f12510445cdd65bd6cd9550037eb0dcb39ad5f2e008f3"),
    ("classes --group M11", "tsv", 0,
     "31802d9b4e66758560cbdf4e14e67828f1c9532afe2fdc5606c26a12a90854e6"),
    ("criterion --group A6", "tsv", 1,
     "39f974132d3a86857d439f60281753a050a0cf701942e8f317eed029aae2d173"),
    ("witness verify 2 11 --group M11", "tsv", 0,
     "08f6e6bfdf0cdcc911430b27f6f246c1520de1268f4ac1025d63fc692cecbc68"),
    ("witness search --group A7 --primes", "tsv", 0,
     "3ef9c9388d7f82d837087b941bb4b415442d37c3ba2491ddbd06173cacaba02c"),
    ("ppd 43 17 --basic --large", "tsv", 0,
     "8e019446ebc4b5f5739b098ffaa5caaf7e2e9f5f7c8595240443c2ec76cf1983"),
    ("ppd 2 6 --basic", "tsv", 0,
     "45fd2f9df187bc411dc80df5c4c4844ac00f4dd69bc69453f1893a5d143433d6"),
    ("zsigmondy-scan 32 20", "tsv", 0,
     "a1b87649423cb4f5ac3eadadad9a00b9d8826d3d0115c652fd91a824915eee16"),
    ("verify-table", "tsv", 0,
     "0c34a47df0263f0d46bfea49a94bfd5158d0bf25b4c143b681414542a5833a9c"),
    ("criterion --group M11", "text", 1,
     "655ee2ad1c619de7652988f3214b141f3e812e09a82134ce7636079657d903a4"),
    ("criterion --group M11", "json", 1,
     "bde9bcf7914728c1b7cb9dee455101f7c60aaf017849b75cf1b99a9c25d0c663"),
    ("criterion --group M12", "json", 1,
     "fce1a76a1dc2102fa541d869dcaaf9d3909062c24ace42238a499001b9f2dcb2"),
    ("alt-pair 6", "text", 0,
     "16416d85f7730af391988a69c627ad0e7fd975e14690b94a15706d106ef4f056"),
    ("alt-pair 6", "json", 0,
     "86b842ac8a68ee83d34b870bbd87c73cf06130e679ec3786a00fb5a1b82a856f"),
    ("alt-pair 10", "text", 0,
     "0cda58963c91ffa9f77ca5e937af2bbea96198dc735a7a1babbcd9aef8b10c7d"),
    ("alt-pair 10", "json", 0,
     "a762e252149f7320fd7f175e56dccfda41b6ad41366c6f87183ccacf8f96e172"),
    ("alt-pair 16", "text", 0,
     "ee20737ae707cbe775acaa0392f3fbadfb42235fd0af915e91ce78856e670e34"),
    ("alt-pair 16", "json", 0,
     "6f6ae76208a637ae6861ec1d1a22a999051fc3c794a5a8d0bf60916c3a47d012"),
]

HELP = [
    ("", "dcef8c5c7ccd51bbd5697d12a6078f58127f36cb51dabb277bcfa2bb013b3db9"),
    ("witness",
     "1cec30db9069e0e10a1baf13198174744ffddda709526fa7eeb8464be705138d"),
    ("order",
     "287b8a263a702f944bd9d83fe8d45609c4f62e82532cc64b3bfa774eb7d6ac15"),
    ("solvable",
     "fa5b69f21816cb19fd812a87a7c6d7e3bbd144f939c744eb13cd6b77b7b2cc3a"),
    ("spectrum",
     "9ec326687e6dfe8e150bdf95fd4e6d11686c536b058ef92981e245040a01b220"),
    ("classes",
     "9f39fedbbec62b0d64baaa8a302f5bb144da04763840e67e638432f6d3c8a68e"),
    ("criterion",
     "3178e92731679f65875ac70049029f6f223d10772bf32b160ec33c5c0181027b"),
    ("witness verify",
     "ebb9e662c446e8e277d73fa7fb8cf744106edc945d793ea8e904a8b08acb1e46"),
    ("witness search",
     "89339d9b77194655a2cd3c336ca9cd374593b54d2f18f58064cb4b41717bcb8d"),
    ("ppd",
     "3124df3d727bdb37d0be4b593a36878c0fe170fd4e3bc2118eba2333b9d771d0"),
    ("zsigmondy-scan",
     "044e5a4b9a19c827665f8c10d08a68c0ec74c9e520e4abbc43cacd3a035e337a"),
    ("alt-pair",
     "00ab638e11db75af97f0ab7260bbc7eab8774c858fc7714945e251d644dd202c"),
    ("phi",
     "a4ec42eb2bf81953336f4e2a6b6d2673f7f821fe9a3f79a04c2eb3aed9143335"),
    ("verify-table",
     "3473cf8448ab7f650531536474c697a3366651f237e66e91934b12ea2cb6caf3"),
]


@pytest.mark.parametrize("command, fmt, code, digest", GOLDEN,
                         ids=[f"{c} [{f}]" for c, f, _, _ in GOLDEN])
def test_golden_output(capsys, command, fmt, code, digest):
    assert main(command.split() + ["--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, digest", HELP,
                         ids=[c or "solvcrit" for c, _ in HELP])
def test_golden_help(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
