// Census-style deduplication on a single relation: MDs over (R, R), the
// self-pair setting of the paper's Example 2.3. Demonstrates:
//   - declaring MDs in the text syntax over one schema,
//   - deducing RCKs for the dedup target,
//   - enforcing the MDs to a stable instance (record fusion), and
//   - using the RCKs as dedup rules with a sliding window.

#include <cstdio>

#include "api/executor.h"
#include "api/plan.h"
#include "core/enforce.h"
#include "core/md_parser.h"
#include "match/comparison.h"
#include "match/evaluation.h"

using namespace mdmatch;

int main() {
  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();

  Schema person("person", {
                              {"ssn", "ssn"},
                              {"fname", "fname"},
                              {"lname", "lname"},
                              {"addr", "address"},
                              {"phone", "phone"},
                              {"email", "email"},
                          });
  SchemaPair pair(person, person);

  auto target = *ComparableLists::MakeByName(
      pair, {"fname", "lname", "addr", "phone", "email"},
      {"fname", "lname", "addr", "phone", "email"});

  auto sigma = *ParseMdSet(
      "# same SSN: same person - identify everything\n"
      "person[ssn] = person[ssn] -> person[fname,lname,addr,phone,email] "
      "<=> person[fname,lname,addr,phone,email]\n"
      "# same email: identify the name\n"
      "person[email] = person[email] -> person[fname,lname] <=> "
      "person[fname,lname]\n"
      "# same phone: identify the address\n"
      "person[phone] = person[phone] -> person[addr] <=> person[addr]\n"
      "# same last name + address, similar first name: same person\n"
      "person[lname] = person[lname] /\\ person[addr] = person[addr] /\\ "
      "person[fname] ~dl@0.80 person[fname] -> "
      "person[fname,lname,addr,phone,email] <=> "
      "person[fname,lname,addr,phone,email]\n",
      pair, ops);

  std::printf("== MDs over person (self pair) ==\n");
  for (const auto& md : sigma) {
    std::printf("  %s\n", md.ToString(pair, ops).c_str());
  }

  // Compile the dedup plan once: deduction, key derivation and operator
  // resolution happen here, not per matching run. The schemas are tiny and
  // clean, so match strictly and keep the windows narrow.
  api::PlanOptions popt;
  popt.num_rcks = 8;
  popt.relax_theta = 0;
  popt.soundex_domains = {"fname", "lname"};
  auto plan = api::PlanBuilder(pair, target, &ops)
                  .WithSigma(sigma)
                  .WithOptions(popt)
                  .Build();
  if (!plan.ok()) {
    std::printf("plan error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== deduced dedup keys ==\n");
  for (const auto& key : (*plan)->rcks()) {
    std::printf("  %s\n", key.ToString(pair, ops).c_str());
  }

  // A small dirty census slice; entity ids are ground truth.
  Relation people(person);
  (void)people.Append({"123-45-6789", "Mary", "Johnson",
                       "12 Cedar Lane, Boston MA", "617-555-0101",
                       "m.johnson@mail.com"},
                      1);
  (void)people.Append({"", "Marry", "Johnson", "12 Cedar Lane, Boston MA",
                       "", "mj@other.net"},
                      1);
  (void)people.Append({"123-45-6789", "M.", "Jonson", "Boston",
                       "617-555-0101", ""},
                      1);
  (void)people.Append({"987-65-4321", "Robert", "Chavez",
                       "9 Summit Avenue, Denver CO", "303-555-0177",
                       "rchavez@gm.com"},
                      2);
  (void)people.Append({"987-65-4321", "Roberto", "Chavez",
                       "9 Summit Avenue, Denver CO", "303-555-0177",
                       "r.chavez@gm.com"},
                      2);
  // NOTE: at most one record may carry an empty SSN. Under the paper's
  // axioms every operator is reflexive, so "" = "" holds and an
  // equality-on-SSN rule would identify two unrelated records that both
  // lack the value. Standardize or complete missing values before
  // matching.

  Instance instance = SelfPair(people);

  // Dedup with the compiled plan's rules. On a five-record slice we can
  // afford the exhaustive i < j loop; at scale, hand the same plan to an
  // api::Executor and let its windowing stage prune the pair space:
  //
  //   api::Executor executor(*plan);
  //   auto report = executor.Run(instance);   // reuses the plan, no
  //                                           // re-deduction
  std::printf("\n== duplicate pairs found ==\n");
  const std::vector<match::MatchRule>& rules = (*plan)->rules();
  for (size_t i = 0; i < people.size(); ++i) {
    for (size_t j = i + 1; j < people.size(); ++j) {
      if (match::AnyRuleMatches(rules, ops, people.tuple(i),
                                people.tuple(j))) {
        std::printf("  record %zu ~ record %zu%s\n", i, j,
                    people.tuple(i).entity() == people.tuple(j).entity()
                        ? ""
                        : "  (FALSE POSITIVE)");
      }
    }
  }

  // Record fusion: the chase completes missing values from duplicates.
  auto stable = Enforce(instance, sigma, ops);
  if (!stable.ok()) {
    std::printf("enforce failed: %s\n", stable.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== fused records (stable instance) ==\n");
  for (size_t i = 0; i < stable->left().size(); ++i) {
    std::printf("  %zu:", i);
    for (const auto& v : stable->left().tuple(i).values()) {
      std::printf(" %s |", v.c_str());
    }
    std::printf("\n");
  }
  std::printf("\n(Record 1's missing SSN/phone were filled from record 0 via "
              "the lname+addr+fname rule; Example 2.3's chase in action.)\n");
  return 0;
}
