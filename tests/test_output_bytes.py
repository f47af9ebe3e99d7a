"""Golden byte identity of every file a small ``cod`` corpus writes.

The SHA-256 digests below pin every written byte, so a change that keeps
the arithmetic (a faster writer, say) must reproduce the output exactly.
A change that means to move the round-off or the content, such as an
oracle that evaluates in another order or a new report field, re-records
the digests of the files it changes and lists each of them, with its
largest change in value, in CHANGES.md.  The digests depend on the
platform's libm and numpy build.  Print the new table with
``PYTHONPATH=src python tests/test_output_bytes.py`` and paste it in.
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
    # complex generating data keeps the complex FFT path pinned
    "stationary-complex": ["stationary", "--size", "32", "--potential", "0.3*cos(x)",
                           "--psi-g-const", "1+0.5j", "--energy", "-0.1"],
    "stationary-2d-complex": ["stationary", "--dims", "2", "--size", "16", "--potential",
                              "0.1*cos(x)*cos(y)", "--psi-g-const", "0.5-1j"],
    "stationary-2d-size50": ["stationary", "--dims", "2", "--size", "50", "--variant",
                             "resolvent", "--source", "delta"],
    "tdse": ["tdse", "--size", "32", "--potential", "0.5*x^2", "--k0", "1",
             "--dt", "1e-2", "--t-final", "0.1"],
    # 50 steps on 32 points: t-free data run in H's eigenbasis
    "tdse-long": ["tdse", "--size", "32", "--potential", "0.5*x^2", "--k0", "1",
                  "--dt", "1e-2", "--t-final", "0.5"],
    # t-dependent U and A keep the per-node sampling path pinned
    "tdse-td": ["tdse", "--size", "32", "--potential", "0.5*x^2+0.1*t*cos(x)",
                "--vector-potential", "0.2*sin(t)", "--k0", "1",
                "--dt", "1e-2", "--t-final", "0.1"],
    "tdse-static-a": ["tdse", "--size", "32", "--potential", "0.2*cos(x)",
                      "--vector-potential", "0.3", "--k0", "1",
                      "--dt", "1e-2", "--t-final", "0.1"],
    # t-free data with fewer sub-nodes than terms stays on the sub-node path
    "tdse-few-nodes": ["tdse", "--size", "32", "--potential", "0.5*x^2", "--terms", "4",
                       "--nodes", "3", "--k0", "1", "--dt", "1e-2", "--t-final", "0.1"],
    "wave": ["wave", "--epsilon", "1+0.2*cos(x)", "--x-size", "32", "--t-max", "0.5",
             "--t-size", "51", "--snapshot", "0.2"],
    # a nonzero R carries every term as two t (x) x factors
    "wave-velocity": ["wave", "--epsilon", "1+0.2*cos(x)", "--r-init", "0.5*cos(x)",
                      "--x-size", "32", "--t-max", "0.5", "--t-size", "51", "--snapshot", "0.2"],
}

# exit codes other than 0: this laplace series stops on max_terms with its
# terms still growing
EXIT_CODES = {"stationary-1d": 2}

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
            '225164053b1f1b7641f1b013693ebc35c365583d5fc6594c0c555a1eebadc4b3',
        'oscillator_solution.csv':
            '07706fa398ec05819d89d7a431ca11e2ef1a15a015d71a2a067d9d3a98b5d72c',
        'oscillator_terms.csv':
            '635aeb6322967f914faa79d90795df3380fb2e601683a3003f46253ba0079ec0',
    },
    'osc-from-csv': {
        'oscillator_report.json':
            '7a61a1e5c8a3f3ca40da1c8decf1896791614dc7c460dad09dce2ef626aacede',
        'oscillator_solution.csv':
            'd54831285cd209ec157aaa2c060bd4cf36f27b437924ccad647d48b75db7a6dc',
        'oscillator_terms.csv':
            'b0fc6a47442a9a21e4daf3134a078b69687bc7dda2556c5fd3584ba1370c235c',
    },
    'osc-power': {
        'oscillator_report.json':
            '09825df5a418e4b1065131519569662fa34c187a30b64a40ae53587d1bcf72c7',
        'oscillator_solution.csv':
            '175014f7d4d08a831f4de80168776bc9900bf78c2c6423b1e96de6cec1e94990',
        'oscillator_terms.csv':
            'a214fd91d446395b8376258c85873135b6ee4c0d248c205c7b987d1c489266c3',
    },
    'osc-sin': {
        'oscillator_report.json':
            '02a198746dd9b47445957a10c15da97e20c2e83cab00acf07d9be635aa0702ce',
        'oscillator_solution.csv':
            'c375ba98e8d8b0a1aef91aa87cfa0afe2660fb9e056df7a3020a1c8958ba919a',
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
            '71788380ad0ec50ca5921080576bdd2dfcc457e14eb0341494c2b36b3757b400',
        'stationary_field.json':
            '5514830ada71c7e75c9a8095498b2272e6c9f991667b637f2985313ee6a88a6f',
        'stationary_report.json':
            'f16c6c73980b63bc4296a93e5da694f985a3d137b41d7bcbd39d7f0cf550991c',
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
            'b10943e31250671d828368e979d8f763fa6d8e6be09a58f4185e022e4e5ff671',
        'stationary_field.json':
            '90c7ec1c979a57ef2c6c8658a4210eabf1dab9f1c0bdc8a6f4dab089fab09dd8',
        'stationary_report.json':
            '6333877c7c61b4643356724b5239b5d42a9a7c2c7298a0e9265ae8818c0bf013',
    },
    'stationary-2d-complex': {
        'stationary_field.csv':
            '38fc4990569977f25c32881a6b9624ba4ff24a02f1989a49cdef048d596b2830',
        'stationary_field.json':
            '451df60c68bb1c998b94da448fd870b2215d4c320b36412f253adedd1b38d549',
        'stationary_report.json':
            'a79db3a86cece17861c6fb0f24d6729e6356c3efc9c85e304eaa76c283e1febc',
    },
    'stationary-2d-size50': {
        'stationary_field.csv':
            'ea002c4df0f7fa621b00d65b1abb1c125155d2279b53794ed8776ec5e0fe6b3a',
        'stationary_field.json':
            '62b6dac53a5ec0e73885fd7ebd31a5797890d590848eccb6944020e0e52ab687',
        'stationary_report.json':
            '730e6a8c192a71737463ddf571306ff2f1b1b1424375285e58a1bde262ac40f9',
    },
    'stationary-complex': {
        'stationary_field.csv':
            '12da3b41b83dca9400955816113ec461b608ba7a97d3d8bdf39de22d5c43b90c',
        'stationary_field.json':
            'f9929580e035cccc0a9deb4cb16b061d2aaca6bbf174390bf716ab9e1cbd8301',
        'stationary_report.json':
            '3075f8b4c7c14b5ed03ebd1f29a74259dc496833e9fdd75bf0006fc743ec441a',
    },
    'tdse': {
        'tdse_final.csv':
            '75064d2492027212ae145c850f4c9f0e6bc5823143103e6648b65f304e4d1381',
        'tdse_steps.jsonl':
            'cba42fbe8da162f5429abe2949d3e5989f761f60541a763a26be61d9a98eec83',
    },
    'tdse-few-nodes': {
        'tdse_final.csv':
            '2790859a447abc62023497a5e27e7ce99dccfdec1a178aa7ceb57492f6618eae',
        'tdse_steps.jsonl':
            'cba42fbe8da162f5429abe2949d3e5989f761f60541a763a26be61d9a98eec83',
    },
    'tdse-long': {
        'tdse_final.csv':
            '3d56a32739597af38aa201348df4e16f1f32b806da0deca28c1e020793dc3327',
        'tdse_steps.jsonl':
            '4c425177a2746a34c2212cd371702800020ece5c3e8b639256ec3bc28341abd9',
    },
    'tdse-static-a': {
        'tdse_final.csv':
            'c69b16ab187d73fefe2f1c412913a47d146d2567c1c9edb591cd6d061f6e3a14',
        'tdse_steps.jsonl':
            'c45daa98f01ebde028b38919d3958846e7d1271445f04de2c7e1f126924b74a4',
    },
    'tdse-td': {
        'tdse_final.csv':
            '29534510c9c9ee6e0d3f8ae5cf5bf4ede7bb1062810be8798547a7e59ab18435',
        'tdse_steps.jsonl':
            'd3f243e0501758128981ea8eaf070f7dae42c0d347c7ce862ca4ae421bf3463e',
    },
    'wave': {
        'wave_field.csv':
            '703ecf90cbde76431da08b334914040495fed9c7e3a1cb4d386185f5f4d4df78',
        'wave_field.json':
            '069c202f1657adab3b1a232b455c9e8ab63d42871633b9ab1c16094e11cc8b3e',
        'wave_report.json':
            '0b12f06f492deef189f108ef4b35ac9aa2c4b222459cc9cbf51248d18fa6a2bb',
        'wave_snapshot.csv':
            '16b922d9a7e21126e1a8fc2763897d6013bb7837c69616b6f2fc264146a8de38',
    },
    'wave-velocity': {
        'wave_field.csv':
            '48d0cbde9b133e33a318a94e7480a40cbaac0eaa72111643179bfad480b978b2',
        'wave_field.json':
            '069c202f1657adab3b1a232b455c9e8ab63d42871633b9ab1c16094e11cc8b3e',
        'wave_report.json':
            '6518f70249e0f4a25a2ae07dcd0ec7bf6ff4eff9b600741828416b2785b33346',
        'wave_snapshot.csv':
            '33b5b0f3c9121ea278b9a2163876aa457f020ea4da199d63a688369deca754dc',
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
    assert code == EXIT_CODES.get(name, 0)
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
