"""Golden outputs: the README promises that identical flags give
byte-identical output, so the exit code and stdout of a few CLI runs are
pinned here verbatim.  A refactor that moves any digit fails this test.

The sweep row at k = 0.1 takes the mpmath path (C2 below the high-precision
modulus), and so does the C2 conj run at k = 0.083, whose t_conj exceeds
t_max1 by 8e-8; the capped conj run covers the second, default-cap search.
"""

import pytest

from cartanconj.cli import main

C1_EXAMPLE = ("--stratum", "C1", "--phi", "0.37", "--k", "0.5",
              "--alpha", "1", "--beta", "0.4")

GOLDEN = [
    (("conj", *C1_EXAMPLE),
     '{"stratum": "C1", "t_max1": 9.567371670096687, "t_conj": 9.602532015455896, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic+variational", '
     '"residual": 6.821210263296962e-13}\n'),
    (("conj", *C1_EXAMPLE, "--horizon", "4.0", "--no-cross-check"),
     '{"stratum": "C1", "t_max1": 9.567371670096687, "t_conj": "inf", '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", "residual": 0.0}\n'),
    (("maxwell", "--theta", "0", "--c", "2", "--alpha", "0", "--beta", "0"),
     '{"stratum": "C6", "t_max1": 4.601591631953129, "root_p": 2.3007958159765645, '
     '"bracket": [2.2962352873731073, 2.3083118211761886], '
     '"residual": 7.022160630754115e-14}\n'),
    (("sweep", "--stratum", "C2", "--k-range", "0.1:0.9", "--nk", "3", "--nphi", "2"),
     "stratum,k,phi,alpha,beta,c,t_max1,t_conj,lower_ok,upper_ok,error\n"
     "C2,0.1,0,1,0,20,0.461315591989,0.461316071442,true,true,\n"
     "C2,0.1,0.157474556152,1,0,19.8997487421,0.461315591989,0.461316071442,true,true,\n"
     "C2,0.5,0,1,0,4,2.4670472377,2.46914663179,true,true,\n"
     "C2,0.5,0.842875177406,1,0,3.46410161514,2.4670472377,2.46914663216,true,true,\n"
     "C2,0.9,0,1,0,2.22222222222,5.84901387677,6.0105502468,true,true,\n"
     "C2,0.9,2.05249422458,1,0,0.968644209676,5.84901387677,6.0105502468,true,true,\n"),
    (("conj", "--no-cross-check", "--stratum", "C2", "--phi", "0.8663522887117603",
      "--k", "0.08322389590755905", "--alpha", "1.7715965331749541",
      "--beta", "-0.2284123710442918", "--direction=-1"),
     '{"stratum": "C2", "t_max1": 0.28822243337376563, "t_conj": 0.28822251508988783, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", '
     '"residual": 4.315817723032985e-34}\n'),
    (("exp", "--theta", "0", "--c", "1", "--alpha", "0", "--beta", "0", "--t", "3.14"),
     "0.00159265291648 1.99999873173 1.56920367354 1.99999746346 1.56761102164\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=["conj_c1", "conj_capped", "maxwell_c6", "sweep_c2", "conj_c2_mp",
                              "exp_circle"])
def test_golden_output(capsys, argv, expected):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected
