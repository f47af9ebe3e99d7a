"""Golden byte identity of every file a small ``cod`` corpus writes.

The SHA-256 digests below pin every written byte, so a faster writer or
oracle must reproduce the scalar code's output exactly.  The digests depend
on the platform's libm and numpy build.  After an intended output change,
print the new table with ``PYTHONPATH=src python tests/test_output_bytes.py``
and paste it in.
"""

import hashlib
import math
import os
import tempfile

import pytest

from codseries.cli import main

# w2 = 1 + 0.5*cos(3t) on [0, 1], 201 points, written with plain f-strings
_W2_CSV = "x,re,im\n" + "".join(
    f"{t:.17g},{1.0 + 0.5 * math.cos(3.0 * t):.17g},0\n"
    for t in (i / 200 for i in range(201)))

CORPUS = {
    "osc-sin": ["oscillator", "--omega-sq", "1.5+0.5*sin(2*t)"],
    "osc-power": ["oscillator", "--omega-sq", "1+0.3*t^3+0.2*t^0.5", "--step", "1e-2"],
    "osc-damped": ["oscillator", "--omega-sq", "0.5+exp(-t)*cos(3*t)", "--t-max", "2"],
    "osc-from-csv": ["oscillator", "--from-csv", "{w2}"],
    "osc-split-conditions": ["oscillator", "--omega-sq", "1-0.5*sin(t)",
                             "--t-a", "0", "--t-b", "0.5"],
    "power-series": ["power-series", "--alpha", "0.5"],
    "exp-potential": ["exp-potential", "--m", "1.5", "--amplitude", "0.7"],
    "exp-potential-c2": ["exp-potential", "--m", "1.5", "--amplitude", "0.7", "--c2", "0.5"],
    "stationary-1d": ["stationary", "--potential", "0.1*cos(x)"],
    # Grid.periodic(0, L, 50).period is one ulp off L: the sidecar must carry L
    "stationary-1d-size50": ["stationary", "--size", "50"],
    "stationary-2d": ["stationary", "--dims", "2", "--size", "32", "--variant",
                      "resolvent", "--source", "delta", "--energy", "-0.5",
                      "--potential", "0.2*(cos(x)+cos(y))"],
    "stationary-2d-size50": ["stationary", "--dims", "2", "--size", "50", "--variant",
                             "resolvent", "--source", "delta"],
    "tdse": ["tdse", "--size", "32", "--potential", "0.5*x^2", "--k0", "1",
             "--dt", "1e-2", "--t-final", "0.1"],
    "wave": ["wave", "--epsilon", "1+0.2*cos(x)", "--x-size", "32", "--t-max", "0.5",
             "--t-size", "51", "--snapshot", "0.2"],
}

GOLDEN = {
    'exp-potential': {
        'exp_potential.csv':
            '2470acd42ff45fe6fff9c761463e52efebe72218a3aa4b81a988f3e4caaf670c',
    },
    'exp-potential-c2': {
        'exp_potential.csv':
            '40b34e01fa50fdc08935b66c185ceb4af25d83ca2f00df1604afd97a002ed173',
    },
    'osc-damped': {
        'oscillator_report.json':
            '05b42de478b63a57c2f000e3f145412fc96d922f3f1ad4f79fe17368f50abf26',
        'oscillator_solution.csv':
            'de1c655ac35f85ffb4e8911da72f301bafa2ea56527e88e3546cc5055dc3299e',
        'oscillator_terms.csv':
            '635aeb6322967f914faa79d90795df3380fb2e601683a3003f46253ba0079ec0',
    },
    'osc-from-csv': {
        'oscillator_report.json':
            '0bffe85fc5f268fc3b55b83e449fe6435d39d7725a606b2e1ba7d1b25fe2675c',
        'oscillator_solution.csv':
            'a2b8cc44700d3cc9dfcbb5da3e53abd7c6479d2dca7db9a43fee610c8b99efed',
        'oscillator_terms.csv':
            'b0fc6a47442a9a21e4daf3134a078b69687bc7dda2556c5fd3584ba1370c235c',
    },
    'osc-power': {
        'oscillator_report.json':
            '9e48986d8926b08f50ea86de2eca21f3d89a16d1d3c3b92fde877bc1c239fdd4',
        'oscillator_solution.csv':
            'f8cfe82a55f404850a78bd9c5cb24b78a8dd71c89ac9834d53c767c440a783d6',
        'oscillator_terms.csv':
            'a214fd91d446395b8376258c85873135b6ee4c0d248c205c7b987d1c489266c3',
    },
    'osc-sin': {
        'oscillator_report.json':
            'dd8fe02fcc74b961c94904807c47f9a49f817bb0a1e66a00bb79427384cfe6e6',
        'oscillator_solution.csv':
            'd33fbdc2efaf72e5e6ea4a416973a3999f5cf4de60f461c448322e04d957e23c',
        'oscillator_terms.csv':
            '1e829a652b8be42ff0fc763c69365df3a6f60a916a744eab8267a0c6468ab701',
    },
    'osc-split-conditions': {
        'oscillator_report.json':
            '9e3e3230f85e70d34e9024fd5a941efa78f98936201dc7a17240e1064ba60b38',
        'oscillator_solution.csv':
            '5e6f90cdadafc90f1a4ec893097662733b0f8862b60b363015d11b87bb26663b',
        'oscillator_terms.csv':
            '0a023c0f701a8fce6941759f83a9e04f6842d4c0217abd97543da19ffc270bdc',
    },
    'power-series': {
        'power_series.csv':
            'f4668943835467849dc185eb0f2e7408131338c3772c2f0e0353d7a35bae9076',
    },
    'stationary-1d': {
        'stationary_field.csv':
            'f829f0bde5731e63594dbd093003ec32eded1dda8917678ed5a3b7015defb3ce',
        'stationary_field.json':
            '5514830ada71c7e75c9a8095498b2272e6c9f991667b637f2985313ee6a88a6f',
        'stationary_report.json':
            'acd657bee0f172d2d4b8c6899e4c6fe87a33ae0b184118876cb5c78a5da85435',
    },
    'stationary-1d-size50': {
        'stationary_field.csv':
            '1585c4b888a368c5e762f68fd1feeae8e68ab0d5bffa881ddec23a05d216dbc8',
        'stationary_field.json':
            'fe48d03e728fe6831891d3a9d67acf4e7529c4a697913120f1a1b8a37c6af03d',
        'stationary_report.json':
            'fc19b48df68ea7c4508c13a07b0065716fe7876084c0a220e9b1f2c8fb92b9f4',
    },
    'stationary-2d': {
        'stationary_field.csv':
            'd20533018f23389ba26c36e3baceeaea41b704e5edd5968119a58b062c87418e',
        'stationary_field.json':
            '90c7ec1c979a57ef2c6c8658a4210eabf1dab9f1c0bdc8a6f4dab089fab09dd8',
        'stationary_report.json':
            '71aade34fb87e15757382a9acfef89869e90eedb1a590f99f2411df53e1ee2fd',
    },
    'stationary-2d-size50': {
        'stationary_field.csv':
            '33d2260230480eedec1fae22c1c0b2010e4f7133c9ffd30067acabba88624aec',
        'stationary_field.json':
            '62b6dac53a5ec0e73885fd7ebd31a5797890d590848eccb6944020e0e52ab687',
        'stationary_report.json':
            '49ba53d251d971c31ac211302c002acb3fb68c7a6f5a8b4d065e5ac3e9e58186',
    },
    'tdse': {
        'tdse_final.csv':
            '8131965e4f8a485d9043c49d9655c0fcbc5e5e3f58abd67f3e60ba7543845038',
        'tdse_steps.jsonl':
            'cba42fbe8da162f5429abe2949d3e5989f761f60541a763a26be61d9a98eec83',
    },
    'wave': {
        'wave_field.csv':
            '7ede11956fd24fcaf8cc49b63d2ad4dade6449af5e3a659b4ab39b78341fb686',
        'wave_field.json':
            '069c202f1657adab3b1a232b455c9e8ab63d42871633b9ab1c16094e11cc8b3e',
        'wave_report.json':
            'a60a124071559cd5aa71799aac04339dc54b8b62c01b9d0a2e38d38b4d1675b2',
        'wave_snapshot.csv':
            '08e7d1212496f562bd1d973c329ec39b49d095547c2fa03ccf69a0bef6d24df1',
    },
}


def _run(name, out_dir, in_dir):
    w2 = os.path.join(in_dir, "w2.csv")
    with open(w2, "w", encoding="ascii") as fh:
        fh.write(_W2_CSV)
    args = [a.format(w2=w2) for a in CORPUS[name]]
    code = main(args + ["--out-dir", str(out_dir)])
    digests = {}
    for entry in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, entry), "rb") as fh:
            digests[entry] = hashlib.sha256(fh.read()).hexdigest()
    return code, digests


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_recorded_bytes(name, tmp_path):
    (tmp_path / "in").mkdir()
    code, digests = _run(name, tmp_path / "out", tmp_path / "in")
    assert code == 0
    assert digests == GOLDEN[name]


if __name__ == "__main__":
    for corpus_name in sorted(CORPUS):
        with tempfile.TemporaryDirectory() as scratch:
            os.mkdir(os.path.join(scratch, "in"))
            _, table = _run(corpus_name, os.path.join(scratch, "out"),
                            os.path.join(scratch, "in"))
        print(f"    {corpus_name!r}: {{")
        for file_name, digest in table.items():
            print(f"        {file_name!r}:\n            {digest!r},")
        print("    },")
