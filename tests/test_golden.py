"""Golden outputs: the README promises that identical flags give
byte-identical output, so the exit code and stdout of a few CLI runs are
pinned here verbatim.  A refactor that moves any digit fails this test.

The sweep row at k = 0.1 takes the mpmath path (C2 below the high-precision
modulus), and so does the C2 conj run at k = 0.083, whose t_conj exceeds
t_max1 by 8e-8; the capped conj run covers the second, default-cap search.
The C1 sweep pins C1's period (through its phi grid) and t_max1; the
conjugate verify suite pins the lines that read the stratum records.
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
    (("sweep", "--stratum", "C1", "--k-range", "0.3:0.95", "--nk", "3", "--nphi", "2"),
     "stratum,k,phi,alpha,beta,c,t_max1,t_conj,lower_ok,upper_ok,error\n"
     "C1,0.3,0,1,0,0.6,9.17840377613,9.28330568765,true,true,\n"
     "C1,0.3,3.21609723986,1,0,-0.6,9.17840377613,9.28330568765,true,true,\n"
     "C1,0.625,0,1,0,1.25,9.97280674305,10.1078057413,true,true,\n"
     "C1,0.625,3.5421463525,1,0,-1.25,9.97280674305,10.1078057413,true,true,\n"
     "C1,0.95,0,1,0,1.9,7.31387350404,10.8892323397,true,true,\n"
     "C1,0.95,5.18002246175,1,0,-1.9,7.31387350404,10.8892323397,true,true,\n"),
    (("conj", "--no-cross-check", "--stratum", "C2", "--phi", "0.8663522887117603",
      "--k", "0.08322389590755905", "--alpha", "1.7715965331749541",
      "--beta", "-0.2284123710442918", "--direction=-1"),
     '{"stratum": "C2", "t_max1": 0.28822243337376563, "t_conj": 0.28822251508988783, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", '
     '"residual": 4.315817723032985e-34}\n'),
    (("exp", "--theta", "0", "--c", "1", "--alpha", "0", "--beta", "0", "--t", "3.14"),
     "0.00159265291648 1.99999873173 1.56920367354 1.99999746346 1.56761102164\n"),
    (("verify", "--suite", "conjugate", "--seed", "0"),
     "[PASS] conjugate: J1 < 0 on (0, t_max) over a C1 (k,phi,alpha,beta) grid: worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] conjugate: J1 > 0 on (0, t_max) over a C2 (k,psi,alpha,beta) grid: worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] conjugate: a2 > 0, a0 < 0, a0+a1+a2 < 0 on (0, p1): worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] conjugate: J1 = -a2 xi(1-xi) at the fv root (C2): worst 5.727e-10 vs tol 1.0e-09\n"
     "[PASS] conjugate: analytic and variational first zeros agree: worst 0.000e+00 vs tol 1.0e-04"
     "  (6 random extremals)\n"
     "[PASS] conjugate: certificates x2 >= 0 and x1 >= 0: worst 0.000e+00 vs tol 1.0e-12\n"
     "[PASS] conjugate: certificate derivative identities: worst 9.808e-10 vs tol 1.0e-05\n"
     "[PASS] conjugate: t_conj invariant under reflection/rotation/dilation: worst 4.091e-09 vs tol 1.0e-06\n"
     "[PASS] conjugate: equality cases give t_conj = t_max: worst 3.877e-13 vs tol 1.0e-06\n"
     "[PASS] conjugate: two-sided bounds hold: worst 0.000e+00 vs tol 5.0e-01\n"
     "PASS: 10/10 checks\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=["conj_c1", "conj_capped", "maxwell_c6", "sweep_c2", "sweep_c1",
                              "conj_c2_mp", "exp_circle", "verify_conjugate"])
def test_golden_output(capsys, argv, expected):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected
