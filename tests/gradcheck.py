"""Central finite differences against the tape's analytic gradients."""
from nulog.numerics import Tensor


def finite_difference_check(loss_fn, params: dict[str, Tensor],
                            h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn must rebuild the loss from the current parameter values on every
    call. Run with float64 parameters; at float32 the differences drown in
    rounding noise. At h=1e-5 the truncation error of central differences
    stays small past one encoder block (at 1e-3 it alone reaches 1e-2 on a
    correct two-block model), while float64 rounding in the difference
    stays near 1e-11. The relative error denominator is floored at 1e-3 so
    coordinates with near-zero gradient compare absolutely.
    """
    for t in params.values():
        t.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in params.items()}
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = float(loss_fn().data)
            flat[i] = saved - h
            down = float(loss_fn().data)
            flat[i] = saved
            numeric = (up - down) / (2.0 * h)
            a = float(grad_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if rel > worst:
                worst = rel
    for t in params.values():
        t.grad = None
    return worst
