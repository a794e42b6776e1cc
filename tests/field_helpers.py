"""Field maps that the tests build from FieldCtx and GFTable arithmetic."""


def u_frob(ctx, a):
    """The twisted map a -> a^(-q); ZeroInputError at 0."""
    return ctx.inv(ctx.conj(a))


def embed_from(host, sub):
    """Packed-value dict from the subfield `sub` into `host`."""
    return {v: k for k, v in host.subfield_map(sub).items()}


def frobenius(ctx, a, k):
    """a -> a^(q^k), q = p^e of the context."""
    return ctx.pow(a, ctx.pp.q**k)


def norm_one(F):
    """The elements a with a * conj(a) = 1 of the table F, ascending."""
    return tuple(a for a in range(1, F.size) if F.mul[a][F.conj[a]] == 1)
